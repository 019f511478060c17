//! The instruction-set simulator: a configurable VexRiscv-like RV32IM
//! core with CFU port, caches, and a first-order timing model.
//!
//! This is the Renode-equivalent execution path: "ISA simulation of the
//! CPU, combined with cycle-accurate ... simulation of the CFU". Real
//! encoded RISC-V programs (e.g. from [`cfu_isa::Assembler`]) run against
//! a [`cfu_mem::Bus`], every `custom-0` instruction is dispatched to the
//! attached [`Cfu`], and cycle accounting follows the [`CpuConfig`]
//! feature knobs.

use std::fmt;

use cfu_core::{Cfu, CfuError, CfuOp, NullCfu};
use cfu_isa::{Csr, Inst, Reg};
use cfu_mem::{Bus, Cache, MemError};

use crate::bpred::PredictorState;
use crate::config::CpuConfig;
use crate::timed_core::buffer_store;

/// Addresses at or above this bypass the caches (peripheral/CSR space,
/// matching the LiteX CSR region placement).
pub const UNCACHED_BASE: u32 = 0xE000_0000;

/// Machine-mode syscall numbers recognized by `ecall` (RISC-V Linux ABI
/// subset, the convention CFU Playground test programs use via
/// semihosting-style stubs).
pub mod syscall {
    /// `a7 = 93`: exit with code `a0`.
    pub const EXIT: u32 = 93;
    /// `a7 = 64`: write the byte in `a0` to the console.
    pub const PUTCHAR: u32 = 64;
}

/// Why the simulator stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Program executed `ecall` with the exit syscall.
    Exit(u32),
    /// Program hit `ebreak`.
    Breakpoint,
    /// The instruction budget ran out.
    BudgetExhausted,
}

/// Simulator errors (bad programs, not bad simulator states).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A memory access faulted.
    Mem {
        /// PC of the faulting instruction.
        pc: u32,
        /// The underlying fault.
        source: MemError,
    },
    /// The word at `pc` does not decode.
    Illegal {
        /// PC of the undecodable word.
        pc: u32,
        /// The word itself.
        word: u32,
    },
    /// The CFU rejected an op.
    Cfu {
        /// PC of the custom instruction.
        pc: u32,
        /// The underlying CFU error.
        source: CfuError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem { pc, source } => write!(f, "memory fault at pc=0x{pc:08x}: {source}"),
            SimError::Illegal { pc, word } => {
                write!(f, "illegal instruction 0x{word:08x} at pc=0x{pc:08x}")
            }
            SimError::Cfu { pc, source } => write!(f, "CFU fault at pc=0x{pc:08x}: {source}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Mem { source, .. } => Some(source),
            SimError::Cfu { source, .. } => Some(source),
            SimError::Illegal { .. } => None,
        }
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Multiply instructions.
    pub muls: u64,
    /// Divide/remainder instructions.
    pub divs: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// CFU instructions.
    pub cfu_ops: u64,
    /// Cycles spent stalled on CFU responses.
    pub cfu_stall_cycles: u64,
}

/// The simulated CPU.
///
/// # Example
///
/// ```
/// use cfu_isa::Assembler;
/// use cfu_mem::{Bus, Sram};
/// use cfu_sim::{Cpu, CpuConfig, StopReason};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut bus = Bus::new();
/// bus.map("sram", 0, Sram::new(4096));
/// let program = Assembler::new(0).assemble(
///     "li a0, 6
///      li a1, 7
///      mul a0, a0, a1
///      li a7, 93   # exit syscall
///      ecall",
/// )?;
/// let mut cpu = Cpu::new(CpuConfig::arty_default(), bus);
/// cpu.load_program(&program)?;
/// let stop = cpu.run(1000)?;
/// assert_eq!(stop, StopReason::Exit(42));
/// # Ok(())
/// # }
/// ```
pub struct Cpu {
    config: CpuConfig,
    regs: [u32; 32],
    pc: u32,
    bus: Bus,
    icache: Option<Cache>,
    dcache: Option<Cache>,
    bpred: PredictorState,
    cfu: Box<dyn Cfu>,
    /// Optional second CFU on the custom-1 opcode.
    cfu1: Option<Box<dyn Cfu>>,
    stats: CpuStats,
    console: Vec<u8>,
    /// Destination of the previous instruction (hazard modelling).
    prev_rd: Option<Reg>,
    /// Whether the previous instruction was a load.
    prev_was_load: bool,
    /// Completion times of in-flight write-buffer entries.
    write_buffer: std::collections::VecDeque<u64>,
    stopped: Option<StopReason>,
    /// Ring buffer of recently retired (pc, instruction) pairs; empty
    /// when tracing is off.
    trace: std::collections::VecDeque<(u32, Inst)>,
    trace_depth: usize,
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &format_args!("0x{:08x}", self.pc))
            .field("cycles", &self.stats.cycles)
            .field("instructions", &self.stats.instructions)
            .field("cfu", &self.cfu.name())
            .finish_non_exhaustive()
    }
}

impl Cpu {
    /// Creates a CPU over `bus` with no CFU attached.
    pub fn new(config: CpuConfig, bus: Bus) -> Self {
        Cpu::with_cfu(config, bus, NullCfu)
    }

    /// Creates a CPU with a CFU on the custom-0 port.
    pub fn with_cfu(config: CpuConfig, bus: Bus, cfu: impl Cfu + 'static) -> Self {
        Cpu {
            config,
            regs: [0; 32],
            pc: 0,
            bus,
            icache: config.icache.map(Cache::new),
            dcache: config.dcache.map(Cache::new),
            bpred: PredictorState::new(config.branch_predictor),
            cfu: Box::new(cfu),
            cfu1: None,
            stats: CpuStats::default(),
            console: Vec::new(),
            prev_rd: None,
            prev_was_load: false,
            write_buffer: std::collections::VecDeque::new(),
            stopped: None,
            trace: std::collections::VecDeque::new(),
            trace_depth: 0,
        }
    }

    /// Enables an execution trace of the last `depth` retired
    /// instructions (0 disables). The Renode flow's instruction-level
    /// debugging: after a fault, [`Cpu::trace_dump`] shows how the
    /// program got there.
    pub fn set_trace_depth(&mut self, depth: usize) {
        self.trace_depth = depth;
        while self.trace.len() > depth {
            self.trace.pop_front();
        }
    }

    /// The recently retired `(pc, instruction)` pairs, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &(u32, Inst)> {
        self.trace.iter()
    }

    /// Renders the trace with disassembly, one line per instruction.
    pub fn trace_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pc, inst) in &self.trace {
            let _ = writeln!(out, "{pc:08x}: {}", cfu_isa::disassemble(inst));
        }
        out
    }

    /// The CPU configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Installs a program image and points the PC at its base.
    ///
    /// # Errors
    ///
    /// Propagates bus faults if the image does not fit the map.
    pub fn load_program(&mut self, program: &cfu_isa::Program) -> Result<(), MemError> {
        self.bus.load_image(program.base, &program.bytes)?;
        self.pc = program.base;
        Ok(())
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (`zero` writes are ignored, as in hardware).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Total cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Why the program stopped, if it has (sticky until reset).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stopped
    }

    /// Bytes written via the console syscall (the `printf()` debugging
    /// channel the paper mentions).
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Mutable access to the bus (for peeking results in tests).
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// Shared access to the bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The attached CFU.
    pub fn cfu(&self) -> &dyn Cfu {
        self.cfu.as_ref()
    }

    /// Attaches a second CFU on the `custom-1` opcode (the interface
    /// reserves both custom opcodes; most designs use only custom-0).
    pub fn attach_cfu1(&mut self, cfu: impl Cfu + 'static) {
        self.cfu1 = Some(Box::new(cfu));
    }

    /// I-cache statistics, if an I-cache is configured.
    pub fn icache_stats(&self) -> Option<cfu_mem::CacheStats> {
        self.icache.as_ref().map(|c| c.stats())
    }

    /// D-cache statistics, if a D-cache is configured.
    pub fn dcache_stats(&self) -> Option<cfu_mem::CacheStats> {
        self.dcache.as_ref().map(|c| c.stats())
    }

    /// Runs until exit/breakpoint/fault or `max_instructions`.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] the program triggers.
    pub fn run(&mut self, max_instructions: u64) -> Result<StopReason, SimError> {
        for _ in 0..max_instructions {
            if let Some(reason) = self.stopped {
                return Ok(reason);
            }
            self.step()?;
        }
        Ok(self.stopped.unwrap_or(StopReason::BudgetExhausted))
    }

    /// Executes one instruction: fetch, decode, execute and retire.
    ///
    /// # Errors
    ///
    /// Any fault the instruction raises.
    pub fn step(&mut self) -> Result<(), SimError> {
        let pc = self.pc;
        let (inst, ilen) = if self.config.compressed {
            let low = self.fetch_parcel(pc, true)?;
            if cfu_isa::compressed::is_compressed(low) {
                let inst = cfu_isa::compressed::decode_compressed(low)
                    .map_err(|_| SimError::Illegal { pc, word: u32::from(low) })?;
                (inst, 2)
            } else {
                // Second parcel of a 32-bit instruction; charged only when
                // it crosses into a new cache line / device word.
                let charge = (pc + 2).is_multiple_of(4);
                let high = self.fetch_parcel(pc + 2, charge)?;
                let word = u32::from(low) | (u32::from(high) << 16);
                (decode_word(pc, word)?, 4)
            }
        } else {
            let word = self.fetch(pc)?;
            (decode_word(pc, word)?, 4)
        };
        self.retire(pc, inst, ilen)
    }

    /// Trace, hazard stalls, execution and retirement of one
    /// decoded instruction (fetch timing already charged).
    #[inline]
    fn retire(&mut self, pc: u32, inst: Inst, ilen: u32) -> Result<(), SimError> {
        let srcs = inst.sources();
        if self.trace_depth > 0 {
            if self.trace.len() == self.trace_depth {
                self.trace.pop_front();
            }
            self.trace.push_back((pc, inst));
        }
        self.charge_hazards(srcs);
        self.execute(pc, inst, ilen)?;
        self.stats.instructions += 1;
        Ok(())
    }

    // ---- timing helpers -------------------------------------------------

    #[inline]
    fn charge(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Fetches one 16-bit parcel (RVC mode). `charge` is false for the
    /// second half of a 32-bit instruction that the fetch unit already
    /// pulled in with the first half.
    fn fetch_parcel(&mut self, pc: u32, charge: bool) -> Result<u16, SimError> {
        let wrap = |source| SimError::Mem { pc, source };
        if charge {
            let Some(cache) = self.icache.as_mut().filter(|_| pc < UNCACHED_BASE) else {
                let mut b = [0u8; 2];
                let cycles = self.bus.read(pc, &mut b).map_err(wrap)?;
                self.charge(cycles);
                return Ok(u16::from_le_bytes(b));
            };
            if cache.access(pc) {
                self.charge(1);
            } else {
                let line = cache.config().line_bytes;
                let line_addr = pc & !(line - 1);
                let cycles = self.bus.read_cost(line_addr, line).map_err(wrap)?;
                self.charge(1 + cycles);
            }
        }
        let mut b = [0u8; 2];
        self.bus.peek(pc, &mut b).map_err(wrap)?;
        Ok(u16::from_le_bytes(b))
    }

    fn fetch(&mut self, pc: u32) -> Result<u32, SimError> {
        let wrap = |source| SimError::Mem { pc, source };
        let Some(cache) = self.icache.as_mut().filter(|_| pc < UNCACHED_BASE) else {
            let r = self.bus.read_u32(pc).map_err(wrap)?;
            self.charge(r.cycles);
            return Ok(r.value);
        };
        if cache.access(pc) {
            self.charge(1);
        } else {
            let line = cache.config().line_bytes;
            let line_addr = pc & !(line - 1);
            let cycles = self.bus.read_cost(line_addr, line).map_err(wrap)?;
            self.charge(1 + cycles);
        }
        // The fetched word itself comes via a timing-free peek: the cache
        // model charged the real cost above.
        let mut b = [0u8; 4];
        self.bus.peek(pc, &mut b).map_err(wrap)?;
        Ok(u32::from_le_bytes(b))
    }

    #[inline]
    fn data_read(&mut self, pc: u32, addr: u32, len: u32) -> Result<u32, SimError> {
        let wrap = |source| SimError::Mem { pc, source };
        let addr = self.check_align(pc, addr, len)?;
        let Some(cache) = self.dcache.as_mut().filter(|_| addr < UNCACHED_BASE) else {
            let mut buf = [0u8; 4];
            let cycles = self.bus.read(addr, &mut buf[..len as usize]).map_err(wrap)?;
            self.charge(cycles);
            return Ok(u32::from_le_bytes(buf));
        };
        if cache.access(addr) {
            self.charge(1);
        } else {
            let line = cache.config().line_bytes;
            let line_addr = addr & !(line - 1);
            let cycles = self.bus.read_cost(line_addr, line).map_err(wrap)?;
            self.charge(1 + cycles);
        }
        let mut b = [0u8; 4];
        self.bus.peek(addr, &mut b[..len as usize]).map_err(wrap)?;
        Ok(u32::from_le_bytes(b))
    }

    fn data_write(&mut self, pc: u32, addr: u32, value: u32, len: u32) -> Result<(), SimError> {
        let wrap = |source| SimError::Mem { pc, source };
        let addr = self.check_align(pc, addr, len)?;
        let bytes = value.to_le_bytes();
        // Functional write (device time computed below via the buffer).
        let device_cycles = self.bus.write(addr, &bytes[..len as usize]).map_err(wrap)?;
        if addr >= UNCACHED_BASE {
            self.charge(device_cycles);
            return Ok(());
        }
        // Write-through, no-write-allocate, 4-deep write buffer: the one
        // `buffer_store` model.
        let charged = buffer_store(&mut self.write_buffer, self.stats.cycles, device_cycles);
        self.charge(charged);
        Ok(())
    }

    fn check_align(&self, pc: u32, addr: u32, len: u32) -> Result<u32, SimError> {
        if addr.is_multiple_of(len) {
            Ok(addr)
        } else if self.config.hw_error_checking {
            Err(SimError::Mem { pc, source: MemError::Misaligned { addr, required: len } })
        } else {
            // Without checking hardware, the low bits are silently dropped
            // (the wrong-but-cheap behaviour the Fomu build accepts).
            Ok(addr & !(len - 1))
        }
    }

    /// Data-hazard stalls given the previous instruction and this one's
    /// source registers (precomputed via [`Inst::sources`]).
    #[inline]
    fn charge_hazards(&mut self, srcs: (Option<Reg>, Option<Reg>)) {
        let Some(prev) = self.prev_rd else {
            return;
        };
        if prev.is_zero() {
            return;
        }
        let (a, b) = srcs;
        let uses_prev = a == Some(prev) || b == Some(prev);
        if !uses_prev {
            return;
        }
        let penalty = if self.prev_was_load {
            if self.config.bypassing {
                1
            } else {
                2
            }
        } else if self.config.bypassing {
            0
        } else {
            1
        };
        self.charge(penalty);
    }

    // ---- execution ------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, pc: u32, inst: Inst, ilen: u32) -> Result<(), SimError> {
        use Inst::*;
        let mut next_pc = pc.wrapping_add(ilen);
        let mut is_load = false;
        match inst {
            Lui { rd, imm } => {
                self.charge(1);
                self.set_reg(rd, imm as u32);
            }
            Auipc { rd, imm } => {
                self.charge(1);
                self.set_reg(rd, pc.wrapping_add(imm as u32));
            }
            Jal { rd, imm } => {
                self.charge(2); // 1 + redirect bubble
                self.set_reg(rd, pc.wrapping_add(ilen));
                next_pc = pc.wrapping_add(imm as u32);
            }
            Jalr { rd, rs1, imm } => {
                self.charge(1 + self.config.refill_penalty());
                let target = self.reg(rs1).wrapping_add(imm as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(ilen));
                next_pc = target;
            }
            Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } | Bltu { .. } | Bgeu { .. } => {
                let (rs1, rs2, imm) = branch_fields(&inst);
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match inst {
                    Beq { .. } => a == b,
                    Bne { .. } => a != b,
                    Blt { .. } => (a as i32) < (b as i32),
                    Bge { .. } => (a as i32) >= (b as i32),
                    Bltu { .. } => a < b,
                    _ => a >= b,
                };
                let prediction = self.bpred.predict(pc, imm);
                let correct = self.bpred.update(pc, prediction, taken);
                self.stats.branches += 1;
                self.charge(1);
                if !correct {
                    self.stats.mispredicts += 1;
                    self.charge(self.config.refill_penalty());
                } else if taken && !prediction.target_known {
                    self.charge(1); // redirect bubble even when predicted
                }
                if taken {
                    next_pc = pc.wrapping_add(imm as u32);
                }
            }
            Lb { rd, rs1, imm } => {
                is_load = true;
                self.stats.loads += 1;
                let v = self.data_read(pc, self.reg(rs1).wrapping_add(imm as u32), 1)?;
                self.set_reg(rd, (v as u8 as i8) as i32 as u32);
            }
            Lbu { rd, rs1, imm } => {
                is_load = true;
                self.stats.loads += 1;
                let v = self.data_read(pc, self.reg(rs1).wrapping_add(imm as u32), 1)?;
                self.set_reg(rd, v & 0xFF);
            }
            Lh { rd, rs1, imm } => {
                is_load = true;
                self.stats.loads += 1;
                let v = self.data_read(pc, self.reg(rs1).wrapping_add(imm as u32), 2)?;
                self.set_reg(rd, (v as u16 as i16) as i32 as u32);
            }
            Lhu { rd, rs1, imm } => {
                is_load = true;
                self.stats.loads += 1;
                let v = self.data_read(pc, self.reg(rs1).wrapping_add(imm as u32), 2)?;
                self.set_reg(rd, v & 0xFFFF);
            }
            Lw { rd, rs1, imm } => {
                is_load = true;
                self.stats.loads += 1;
                let v = self.data_read(pc, self.reg(rs1).wrapping_add(imm as u32), 4)?;
                self.set_reg(rd, v);
            }
            Sb { rs1, rs2, imm } => {
                self.stats.stores += 1;
                self.data_write(pc, self.reg(rs1).wrapping_add(imm as u32), self.reg(rs2), 1)?;
            }
            Sh { rs1, rs2, imm } => {
                self.stats.stores += 1;
                self.data_write(pc, self.reg(rs1).wrapping_add(imm as u32), self.reg(rs2), 2)?;
            }
            Sw { rs1, rs2, imm } => {
                self.stats.stores += 1;
                self.data_write(pc, self.reg(rs1).wrapping_add(imm as u32), self.reg(rs2), 4)?;
            }
            Addi { rd, rs1, imm } => {
                self.charge(1);
                self.set_reg(rd, self.reg(rs1).wrapping_add(imm as u32));
            }
            Slti { rd, rs1, imm } => {
                self.charge(1);
                self.set_reg(rd, u32::from((self.reg(rs1) as i32) < imm));
            }
            Sltiu { rd, rs1, imm } => {
                self.charge(1);
                self.set_reg(rd, u32::from(self.reg(rs1) < imm as u32));
            }
            Xori { rd, rs1, imm } => {
                self.charge(1);
                self.set_reg(rd, self.reg(rs1) ^ imm as u32);
            }
            Ori { rd, rs1, imm } => {
                self.charge(1);
                self.set_reg(rd, self.reg(rs1) | imm as u32);
            }
            Andi { rd, rs1, imm } => {
                self.charge(1);
                self.set_reg(rd, self.reg(rs1) & imm as u32);
            }
            Slli { rd, rs1, shamt } => {
                self.charge(self.config.shift_cycles(u32::from(shamt)));
                self.set_reg(rd, self.reg(rs1) << shamt);
            }
            Srli { rd, rs1, shamt } => {
                self.charge(self.config.shift_cycles(u32::from(shamt)));
                self.set_reg(rd, self.reg(rs1) >> shamt);
            }
            Srai { rd, rs1, shamt } => {
                self.charge(self.config.shift_cycles(u32::from(shamt)));
                self.set_reg(rd, ((self.reg(rs1) as i32) >> shamt) as u32);
            }
            Add { rd, rs1, rs2 } => {
                self.charge(1);
                self.set_reg(rd, self.reg(rs1).wrapping_add(self.reg(rs2)));
            }
            Sub { rd, rs1, rs2 } => {
                self.charge(1);
                self.set_reg(rd, self.reg(rs1).wrapping_sub(self.reg(rs2)));
            }
            Sll { rd, rs1, rs2 } => {
                let sh = self.reg(rs2) & 0x1F;
                self.charge(self.config.shift_cycles(sh));
                self.set_reg(rd, self.reg(rs1) << sh);
            }
            Slt { rd, rs1, rs2 } => {
                self.charge(1);
                self.set_reg(rd, u32::from((self.reg(rs1) as i32) < (self.reg(rs2) as i32)));
            }
            Sltu { rd, rs1, rs2 } => {
                self.charge(1);
                self.set_reg(rd, u32::from(self.reg(rs1) < self.reg(rs2)));
            }
            Xor { rd, rs1, rs2 } => {
                self.charge(1);
                self.set_reg(rd, self.reg(rs1) ^ self.reg(rs2));
            }
            Srl { rd, rs1, rs2 } => {
                let sh = self.reg(rs2) & 0x1F;
                self.charge(self.config.shift_cycles(sh));
                self.set_reg(rd, self.reg(rs1) >> sh);
            }
            Sra { rd, rs1, rs2 } => {
                let sh = self.reg(rs2) & 0x1F;
                self.charge(self.config.shift_cycles(sh));
                self.set_reg(rd, ((self.reg(rs1) as i32) >> sh) as u32);
            }
            Or { rd, rs1, rs2 } => {
                self.charge(1);
                self.set_reg(rd, self.reg(rs1) | self.reg(rs2));
            }
            And { rd, rs1, rs2 } => {
                self.charge(1);
                self.set_reg(rd, self.reg(rs1) & self.reg(rs2));
            }
            Fence => self.charge(1),
            Ecall => {
                self.charge(1);
                match self.reg(Reg::A7) {
                    syscall::EXIT => self.stopped = Some(StopReason::Exit(self.reg(Reg::A0))),
                    syscall::PUTCHAR => self.console.push(self.reg(Reg::A0) as u8),
                    _ => {} // unknown syscalls are no-ops
                }
            }
            Ebreak => {
                self.charge(1);
                self.stopped = Some(StopReason::Breakpoint);
            }
            Csrrw { rd, rs1, csr } | Csrrs { rd, rs1, csr } | Csrrc { rd, rs1, csr } => {
                self.charge(1);
                let _ = rs1; // counters are read-only here; writes ignored
                let v = self.read_csr(csr);
                self.set_reg(rd, v);
            }
            Csrrwi { rd, csr, .. } | Csrrsi { rd, csr, .. } | Csrrci { rd, csr, .. } => {
                self.charge(1);
                let v = self.read_csr(csr);
                self.set_reg(rd, v);
            }
            Mul { rd, rs1, rs2 } => {
                self.stats.muls += 1;
                self.charge(self.config.mul_cycles());
                self.set_reg(rd, self.reg(rs1).wrapping_mul(self.reg(rs2)));
            }
            Mulh { rd, rs1, rs2 } => {
                self.stats.muls += 1;
                self.charge(self.config.mul_cycles());
                let v = (i64::from(self.reg(rs1) as i32) * i64::from(self.reg(rs2) as i32)) >> 32;
                self.set_reg(rd, v as u32);
            }
            Mulhsu { rd, rs1, rs2 } => {
                self.stats.muls += 1;
                self.charge(self.config.mul_cycles());
                let v = (i64::from(self.reg(rs1) as i32) * i64::from(self.reg(rs2))) >> 32;
                self.set_reg(rd, v as u32);
            }
            Mulhu { rd, rs1, rs2 } => {
                self.stats.muls += 1;
                self.charge(self.config.mul_cycles());
                let v = (u64::from(self.reg(rs1)) * u64::from(self.reg(rs2))) >> 32;
                self.set_reg(rd, v as u32);
            }
            Div { rd, rs1, rs2 } => {
                self.stats.divs += 1;
                self.charge(self.config.div_cycles());
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let v = if b == 0 {
                    -1i32
                } else if a == i32::MIN && b == -1 {
                    a
                } else {
                    a / b
                };
                self.set_reg(rd, v as u32);
            }
            Divu { rd, rs1, rs2 } => {
                self.stats.divs += 1;
                self.charge(self.config.div_cycles());
                let b = self.reg(rs2);
                let v = self.reg(rs1).checked_div(b).unwrap_or(u32::MAX);
                self.set_reg(rd, v);
            }
            Rem { rd, rs1, rs2 } => {
                self.stats.divs += 1;
                self.charge(self.config.div_cycles());
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let v = if b == 0 {
                    a
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    a % b
                };
                self.set_reg(rd, v as u32);
            }
            Remu { rd, rs1, rs2 } => {
                self.stats.divs += 1;
                self.charge(self.config.div_cycles());
                let b = self.reg(rs2);
                let v = if b == 0 { self.reg(rs1) } else { self.reg(rs1) % b };
                self.set_reg(rd, v);
            }
            Cfu { funct7, funct3, rd, rs1, rs2 } => {
                self.stats.cfu_ops += 1;
                let op = CfuOp::new(funct7, funct3);
                let resp = self
                    .cfu
                    .execute(op, self.reg(rs1), self.reg(rs2))
                    .map_err(|source| SimError::Cfu { pc, source })?;
                self.charge(u64::from(resp.latency));
                self.stats.cfu_stall_cycles += u64::from(resp.latency.saturating_sub(1));
                self.set_reg(rd, resp.value);
            }
            Cfu1 { funct7, funct3, rd, rs1, rs2 } => {
                self.stats.cfu_ops += 1;
                let op = CfuOp::new(funct7, funct3);
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                // custom-1 goes to the second CFU when present, else to
                // the primary (single-CFU designs decode both opcodes).
                let target = self.cfu1.as_mut().unwrap_or(&mut self.cfu);
                let resp =
                    target.execute(op, a, b).map_err(|source| SimError::Cfu { pc, source })?;
                self.charge(u64::from(resp.latency));
                self.stats.cfu_stall_cycles += u64::from(resp.latency.saturating_sub(1));
                self.set_reg(rd, resp.value);
            }
        }
        self.prev_rd = inst.rd();
        self.prev_was_load = is_load;
        self.pc = next_pc;
        Ok(())
    }

    fn read_csr(&self, csr: Csr) -> u32 {
        match csr {
            Csr::Mcycle => self.stats.cycles as u32,
            Csr::Mcycleh => (self.stats.cycles >> 32) as u32,
            Csr::Minstret => self.stats.instructions as u32,
            Csr::Minstreth => (self.stats.instructions >> 32) as u32,
            Csr::Other(_) => 0,
        }
    }
}

fn branch_fields(inst: &Inst) -> (Reg, Reg, i32) {
    use Inst::*;
    match *inst {
        Beq { rs1, rs2, imm }
        | Bne { rs1, rs2, imm }
        | Blt { rs1, rs2, imm }
        | Bge { rs1, rs2, imm }
        | Bltu { rs1, rs2, imm }
        | Bgeu { rs1, rs2, imm } => (rs1, rs2, imm),
        _ => unreachable!("caller matched a branch"),
    }
}

/// Maps a raw fetch word that fails to decode onto [`SimError::Illegal`],
/// keeping the fault's PC. Single definition shared by every decode site.
fn decode_word(pc: u32, word: u32) -> Result<Inst, SimError> {
    Inst::decode(word).map_err(|_| SimError::Illegal { pc, word })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfu_core::templates::SimdAddCfu;
    use cfu_isa::Assembler;
    use cfu_mem::{SpiFlash, SpiWidth, Sram};

    fn sram_bus() -> Bus {
        let mut bus = Bus::new();
        bus.map("sram", 0, Sram::new(64 << 10));
        bus
    }

    fn run_asm(config: CpuConfig, src: &str) -> Cpu {
        let program = Assembler::new(0).assemble(src).expect("asm");
        let mut cpu = Cpu::new(config, sram_bus());
        cpu.load_program(&program).unwrap();
        cpu.run(1_000_000).unwrap();
        cpu
    }

    #[test]
    fn arithmetic_program() {
        let cpu = run_asm(
            CpuConfig::arty_default(),
            "li a0, 21
             slli a0, a0, 1
             li a7, 93
             ecall",
        );
        assert_eq!(cpu.reg(Reg::A0), 42);
    }

    #[test]
    fn loop_and_memory() {
        // Sum 1..=10 into memory and read it back.
        let cpu = run_asm(
            CpuConfig::arty_default(),
            "li t0, 0        # sum
             li t1, 1        # i
             li t2, 11
            loop:
             add t0, t0, t1
             addi t1, t1, 1
             bne t1, t2, loop
             la t3, result
             sw t0, 0(t3)
             lw a0, 0(t3)
             li a7, 93
             ecall
             .align 2
            result: .word 0",
        );
        assert_eq!(cpu.reg(Reg::A0), 55);
        assert!(cpu.stats().branches >= 10);
    }

    #[test]
    fn division_semantics() {
        let cpu = run_asm(
            CpuConfig::arty_default(),
            "li a1, -7
             li a2, 2
             div a3, a1, a2       # -3
             rem a4, a1, a2       # -1
             li a5, 0
             div a6, a1, a5       # div by zero -> -1
             li a7, 93
             ecall",
        );
        assert_eq!(cpu.reg(Reg::A3) as i32, -3);
        assert_eq!(cpu.reg(Reg::A4) as i32, -1);
        assert_eq!(cpu.reg(Reg::A6) as i32, -1);
    }

    #[test]
    fn console_output() {
        let cpu = run_asm(
            CpuConfig::arty_default(),
            "li a0, 'H'
             li a7, 64
             ecall
             li a0, 'i'
             ecall
             li a7, 93
             li a0, 0
             ecall",
        );
        assert_eq!(cpu.console(), b"Hi");
    }

    #[test]
    fn cfu_instruction_dispatch() {
        let program = Assembler::new(0)
            .assemble(
                "li a0, 0x01020304
                 li a1, 0x01010101
                 cfu 0, 0, a2, a0, a1
                 li a7, 93
                 mv a0, a2
                 ecall",
            )
            .unwrap();
        let mut cpu = Cpu::with_cfu(CpuConfig::arty_default(), sram_bus(), SimdAddCfu::new());
        cpu.load_program(&program).unwrap();
        let stop = cpu.run(100).unwrap();
        assert_eq!(stop, StopReason::Exit(0x02030405));
        assert_eq!(cpu.stats().cfu_ops, 1);
    }

    #[test]
    fn cfu_missing_raises_fault() {
        let program = Assembler::new(0).assemble("cfu 0, 0, a0, a0, a0").unwrap();
        let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
        cpu.load_program(&program).unwrap();
        let err = cpu.run(10).unwrap_err();
        assert!(matches!(err, SimError::Cfu { .. }));
    }

    #[test]
    fn iterative_multiplier_is_slower() {
        let src = "li a0, 1234
             li a1, 567
             mul a2, a0, a1
             mul a3, a2, a0
             mul a4, a3, a1
             li a7, 93
             ecall";
        let fast = run_asm(CpuConfig::arty_default(), src);
        let slow = run_asm(
            CpuConfig {
                multiplier: crate::config::Multiplier::Iterative,
                ..CpuConfig::arty_default()
            },
            src,
        );
        assert!(slow.cycles() > fast.cycles() + 3 * 30);
        assert_eq!(slow.reg(Reg::A4), fast.reg(Reg::A4));
    }

    #[test]
    fn mcycle_counts_up() {
        let cpu = run_asm(
            CpuConfig::arty_default(),
            "rdcycle s0
             nop
             nop
             nop
             rdcycle s1
             sub a0, s1, s0
             li a7, 93
             ecall",
        );
        let delta = cpu.reg(Reg::A0);
        assert!(delta >= 3, "mcycle delta {delta}");
    }

    #[test]
    fn xip_flash_fetch_dominates_without_icache() {
        // The KWS story in miniature: the same loop from SPI flash with no
        // icache vs with an icache.
        let src = "li t1, 200
            loop:
             addi t1, t1, -1
             bnez t1, loop
             li a7, 93
             li a0, 0
             ecall";
        let program = Assembler::new(0).assemble(src).unwrap();
        let mk_bus = || {
            let mut bus = Bus::new();
            bus.map("flash", 0, SpiFlash::new(1 << 20, SpiWidth::Single));
            bus.map("sram", 0x1000_0000, Sram::new(4096));
            bus
        };
        let mut nocache =
            Cpu::new(CpuConfig { icache: None, ..CpuConfig::fomu_baseline() }, mk_bus());
        nocache.load_program(&program).unwrap();
        nocache.run(10_000).unwrap();
        let mut cached = Cpu::new(CpuConfig::fomu_with_icache(2048), mk_bus());
        cached.load_program(&program).unwrap();
        cached.run(10_000).unwrap();
        assert!(
            nocache.cycles() > 10 * cached.cycles(),
            "XIP {} vs cached {}",
            nocache.cycles(),
            cached.cycles()
        );
    }

    #[test]
    fn misaligned_access_faults_with_checking() {
        let src = "li a0, 2
             lw a1, 0(a0)";
        let program = Assembler::new(0).assemble(src).unwrap();
        let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
        cpu.load_program(&program).unwrap();
        let err = cpu.run(10).unwrap_err();
        assert!(matches!(err, SimError::Mem { source: MemError::Misaligned { .. }, .. }));
        // Without checking, the access is silently truncated.
        let mut cpu = Cpu::new(
            CpuConfig { hw_error_checking: false, ..CpuConfig::arty_default() },
            sram_bus(),
        );
        cpu.load_program(&program).unwrap();
        cpu.step().unwrap();
        cpu.step().unwrap();
    }

    #[test]
    fn branch_predictor_reduces_loop_cost() {
        let src = "li t1, 1000
            loop:
             addi t1, t1, -1
             bnez t1, loop
             li a7, 93
             ecall";
        let none = run_asm(
            CpuConfig {
                branch_predictor: crate::config::BranchPredictor::None,
                ..CpuConfig::arty_default()
            },
            src,
        );
        let dynamic = run_asm(CpuConfig::arty_default(), src);
        assert!(none.cycles() > dynamic.cycles() + 1000);
        assert!(dynamic.stats().mispredicts < 20);
    }

    #[test]
    fn illegal_instruction_reported_with_pc() {
        let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
        cpu.bus_mut().load_image(0, &0xFFFF_FFFFu32.to_le_bytes()).unwrap();
        let err = cpu.step().unwrap_err();
        assert!(matches!(err, SimError::Illegal { pc: 0, .. }));
        assert!(err.to_string().contains("0x00000000"));
    }

    #[test]
    fn instruction_trace_captures_the_tail() {
        let program = Assembler::new(0)
            .assemble("li t0, 5\nloop: addi t0, t0, -1\nbnez t0, loop\nli a7, 93\necall")
            .unwrap();
        let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
        cpu.set_trace_depth(4);
        cpu.load_program(&program).unwrap();
        cpu.run(100).unwrap();
        let dump = cpu.trace_dump();
        assert_eq!(dump.lines().count(), 4);
        assert!(dump.contains("ecall"), "{dump}");
        assert!(dump.contains("li") || dump.contains("addi"), "{dump}");
        // Disabling clears it.
        cpu.set_trace_depth(0);
        assert_eq!(cpu.trace().count(), 0);
    }

    #[test]
    fn dual_cfu_ports() {
        use cfu_core::templates::BitOpsCfu;
        let program = Assembler::new(0)
            .assemble(
                "li a0, 0x01020304
                 li a1, 0x01010101
                 cfu  0, 0, a2, a0, a1    # custom-0: simd_add
                 cfu1 0, 0, a3, a0, a1    # custom-1: popcount(a0)
                 add a0, a2, a3
                 li a7, 93
                 ecall",
            )
            .unwrap();
        let mut cpu = Cpu::with_cfu(CpuConfig::arty_default(), sram_bus(), SimdAddCfu::new());
        cpu.attach_cfu1(BitOpsCfu::new());
        cpu.load_program(&program).unwrap();
        let stop = cpu.run(100).unwrap();
        // simd_add = 0x02030405, popcount(0x01020304) = 5.
        assert_eq!(stop, StopReason::Exit(0x02030405 + 5));
        assert_eq!(cpu.stats().cfu_ops, 2);
    }

    #[test]
    fn budget_exhaustion_reports() {
        let program = Assembler::new(0).assemble("loop: j loop").unwrap();
        let mut cpu = Cpu::new(CpuConfig::arty_default(), sram_bus());
        cpu.load_program(&program).unwrap();
        assert_eq!(cpu.run(100).unwrap(), StopReason::BudgetExhausted);
    }
}
