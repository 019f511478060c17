//! Converged-layer fast-forward for deployments that share layers.
//!
//! The Figure 4 ladder runs one MobileNetV2 inference per rung, and only
//! the 1x1 CONV_2D kernel changes between rungs. Each rung still runs
//! every other layer, mostly generic CONV_2D and DEPTHWISE_CONV_2D
//! layers, on a core whose caches and predictor differ only in what the
//! previous 1x1 layer left behind. A [`LayerMemo`] shared by such
//! deployments ([`Deployment::share_layers`]) lets later rungs skip most
//! of that work without changing any number:
//!
//! * The first deployment to run a layer with one of the two generic
//!   kernels records it as a [`cfu_sim::span`]. The kernel runs band by
//!   band, a band being a run of output rows. The recording keeps the
//!   core's timing state at each band boundary and the footprint of the
//!   rest of the layer.
//! * Any later run of that layer stops at the first boundary where its
//!   state on the footprint equals the recorded one. It writes the
//!   layer's output with the [`crate::reference`] kernel, computed from
//!   its own input. It then adds the recorded remaining deltas to every
//!   counter and installs the recorded exit state.
//!
//! Only the two generic kernels enter the memo. Their op streams depend
//! on the layer's shapes, never on the data, so a later run replays the
//! recorded one op for op. Kernels that branch on data (MAX_POOL's
//! `v > best`) or issue CFU ops never enter it. Entries are keyed by
//! layer index, kernel and layer geometry. A memo binds to the first
//! deployment's CPU configuration and memory plan and refuses
//! deployments with others.
//!
//! [`Deployment::share_layers`]: crate::deploy::Deployment::share_layers

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use cfu_mem::RegionInfo;
use cfu_sim::span::{SpanRecord, SpanRecorder};
use cfu_sim::{CpuConfig, TimedCore};

use crate::kernels::{KernelError, LayerData, MemTensor};
use crate::model::Padding;
use crate::tensor::{Filter, Shape, Tensor};

/// Recorded layers shared by deployments of one model on one board under
/// one CPU configuration (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct LayerMemo {
    scope: OnceLock<MemoScope>,
    /// Complete recordings only, each inserted whole, so a panic in an
    /// evaluation sharing the memo cannot leave the map invalid and its
    /// lock is taken past poisoning.
    entries: Mutex<HashMap<LayerKey, Arc<SpanRecord>>>,
    fast_forwards: AtomicU64,
    skipped: AtomicU64,
}

/// What a memo is bound to: deployments must match it exactly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MemoScope {
    pub(crate) cpu: CpuConfig,
    pub(crate) regions: Vec<RegionInfo>,
    pub(crate) slot_addrs: Vec<u32>,
    pub(crate) layers: Vec<LayerData>,
}

/// The generic kernels whose layers may enter the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MemoKernel {
    /// [`crate::kernels::generic::conv2d`].
    Conv,
    /// [`crate::kernels::generic::depthwise_conv2d`].
    Depthwise,
}

/// A layer run as the memo sees it: which layer, which kernel, and the
/// geometry its op stream depends on. Addresses are pinned by the
/// memo's [`MemoScope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct LayerKey {
    layer: usize,
    kernel: MemoKernel,
    input: Shape,
    output: Shape,
    /// Filter `(out_ch, kh, kw, in_ch)`.
    filter: (usize, usize, usize, usize),
    stride: usize,
    padding: Padding,
}

impl LayerKey {
    pub(crate) fn new(
        layer: usize,
        kernel: MemoKernel,
        (input, output): (&MemTensor, &MemTensor),
        filter: &Filter,
        stride: usize,
        padding: Padding,
    ) -> Self {
        LayerKey {
            layer,
            kernel,
            input: input.shape,
            output: output.shape,
            filter: (filter.out_ch, filter.kh, filter.kw, filter.in_ch),
            stride,
            padding,
        }
    }
}

impl LayerMemo {
    /// An empty memo, bound to the first deployment that shares it.
    pub fn new() -> Self {
        LayerMemo::default()
    }

    /// Layer runs that were fast-forwarded.
    pub fn fast_forwards(&self) -> u64 {
        self.fast_forwards.load(Ordering::Relaxed)
    }

    /// Guest instructions the fast-forwards skipped.
    pub fn skipped_instructions(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Layers recorded so far.
    pub fn recorded_layers(&self) -> usize {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Binds the memo to `scope` if it is unbound; whether the memo now
    /// serves `scope`.
    pub(crate) fn admit(&self, scope: MemoScope) -> bool {
        self.scope.get_or_init(|| scope.clone()) == &scope
    }

    /// Runs one layer through a banded generic kernel: `prologue`, then
    /// `band` over the output-row ranges of [`bands`], which cover
    /// `0..rows` in order. With a recorded entry for `key`, stops at the
    /// first band boundary where the state has converged, has `output`
    /// write the layer's result, and fast-forwards; otherwise records the
    /// run for later ones.
    pub(crate) fn run_layer(
        &self,
        core: &mut TimedCore,
        key: LayerKey,
        rows: usize,
        prologue: impl FnOnce(&mut TimedCore) -> Result<(), KernelError>,
        mut band: impl FnMut(&mut TimedCore, Range<usize>) -> Result<(), KernelError>,
        output: impl FnOnce(&mut TimedCore) -> Result<(), KernelError>,
    ) -> Result<(), KernelError> {
        let recorded =
            self.entries.lock().unwrap_or_else(PoisonError::into_inner).get(&key).cloned();
        prologue(core)?;
        if let Some(span) = recorded {
            for (b, band_rows) in bands(rows).enumerate() {
                if span.converged(core, b) {
                    output(core)?;
                    let skipped = span.fast_forward(core, b);
                    self.fast_forwards.fetch_add(1, Ordering::Relaxed);
                    self.skipped.fetch_add(skipped, Ordering::Relaxed);
                    return Ok(());
                }
                band(core, band_rows)?;
            }
            return Ok(());
        }
        let Some(mut recorder) = SpanRecorder::start(core) else {
            return band(core, 0..rows);
        };
        for band_rows in bands(rows) {
            recorder.boundary(core);
            band(core, band_rows)?;
        }
        if let Some(span) = recorder.finish(core) {
            let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            entries.entry(key).or_insert_with(|| Arc::new(span));
        }
        Ok(())
    }
}

/// The bands of a layer with `rows` output rows, each starting at a
/// checkpoint: single rows up to row 4, then bands growing by half the
/// largest power of two not above their start (rows 4, 6, 8, 12, 16,
/// 24, 32, ...). Recorded layers converge within their first few rows,
/// and the schedule bounds a layer's checkpoints to `2 log2(rows)`.
fn bands(rows: usize) -> impl Iterator<Item = Range<usize>> {
    let mut start = 0;
    std::iter::from_fn(move || {
        if start >= rows {
            return None;
        }
        let step = if start < 4 { 1 } else { (1 << start.ilog2()) / 2 };
        let band = start..(start + step).min(rows);
        start = band.end;
        Some(band)
    })
}

/// Writes `compute(input)` to `output`'s address, reading `input` from
/// simulated memory. The reads disturb device timing state, which the
/// fast-forward that follows overwrites.
pub(crate) fn write_reference(
    core: &mut TimedCore,
    input: MemTensor,
    output: MemTensor,
    compute: impl FnOnce(&Tensor) -> Tensor,
) -> Result<(), KernelError> {
    let mut bytes = vec![0u8; input.shape.elements()];
    core.bus_mut().peek(input.addr, &mut bytes)?;
    let data = bytes.into_iter().map(|b| b as i8).collect();
    let result = compute(&Tensor::from_data(input.shape, data, input.quant));
    debug_assert_eq!(result.shape, output.shape);
    let bytes: Vec<u8> = result.data.iter().map(|&v| v as u8).collect();
    core.bus_mut().load_image(output.addr, &bytes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_tile_the_rows_with_logarithmically_many_checkpoints() {
        let starts: Vec<usize> = bands(100).map(|b| b.start).collect();
        assert_eq!(starts, [0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96]);
        for rows in 0..300 {
            let all: Vec<usize> = bands(rows).flatten().collect();
            assert_eq!(all, (0..rows).collect::<Vec<_>>());
            assert!(bands(rows).count() <= 2 * rows.max(2).ilog2() as usize + 2, "{rows}");
        }
    }
}
