//! Output checks and fidelity metrics computed from the artifacts' CSVs.
//!
//! Every parser returns an error, never panics, on truncated or
//! malformed input: a broken CSV is a failed run, not a crashed
//! benchmark.

/// A parsed CSV: the header fields and the data rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Parses comma-separated text whose first line must equal `header`
    /// and whose every row has as many fields as the header.
    pub fn parse(text: &str, header: &str) -> Result<Table, String> {
        if !text.ends_with('\n') {
            return Err("CSV does not end with a newline (truncated?)".to_owned());
        }
        let mut lines = text.lines();
        let first = lines.next().ok_or("empty CSV")?;
        if first != header {
            return Err(format!("CSV header is {first:?}, expected {header:?}"));
        }
        let width = first.split(',').count();
        let rows = lines
            .enumerate()
            .map(|(i, line)| {
                let fields: Vec<String> = line.split(',').map(str::to_owned).collect();
                if fields.len() == width {
                    Ok(fields)
                } else {
                    Err(format!("CSV row {} has {} fields, expected {width}", i + 1, fields.len()))
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Table { header: first.split(',').map(str::to_owned).collect(), rows })
    }

    /// Column `name` of every row, parsed as numbers.
    pub fn numbers(&self, name: &str) -> Result<Vec<f64>, String> {
        let col = self
            .header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| format!("CSV has no column {name:?}"))?;
        self.rows
            .iter()
            .map(|row| {
                let v: f64 = row[col].parse().map_err(|_| format!("bad number {:?}", row[col]))?;
                if v.is_finite() {
                    Ok(v)
                } else {
                    Err(format!("non-finite number {:?}", row[col]))
                }
            })
            .collect()
    }

    /// The first field of every row.
    pub fn labels(&self) -> Vec<&str> {
        self.rows.iter().map(|r| r[0].as_str()).collect()
    }

    /// Errors unless the first column lists exactly `expected`, in order.
    pub fn expect_labels(&self, expected: &[&str]) -> Result<(), String> {
        if self.labels() == expected {
            Ok(())
        } else {
            Err(format!("CSV steps are {:?}, expected {expected:?}", self.labels()))
        }
    }
}

/// Mean of |ln(measured / paper)| over paired values.
pub fn logerr(pairs: &[(f64, f64)]) -> Result<f64, String> {
    if pairs.is_empty() {
        return Err("no reference values".to_owned());
    }
    let mut sum = 0.0;
    for &(measured, paper) in pairs {
        if !(measured > 0.0 && measured.is_finite() && paper > 0.0) {
            return Err(format!("cannot compare {measured} with paper value {paper}"));
        }
        sum += (measured / paper).ln().abs();
    }
    Ok(sum / pairs.len() as f64)
}

/// Hypervolume dominated by `points` (both coordinates minimised)
/// inside the box bounded by `reference`. Points outside the box add
/// nothing; dominated points add nothing.
pub fn hypervolume(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let mut inside: Vec<(f64, f64)> =
        points.iter().copied().filter(|&(x, y)| x < reference.0 && y < reference.1).collect();
    inside.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    // Staircase sweep: keep only points that lower the best y so far.
    let mut front: Vec<(f64, f64)> = Vec::new();
    for p in inside {
        if front.last().is_none_or(|last| p.1 < last.1) {
            front.push(p);
        }
    }
    let mut volume = 0.0;
    for (i, &(x, y)) in front.iter().enumerate() {
        let next_x = front.get(i + 1).map_or(reference.0, |p| p.0);
        volume += (next_x - x) * (reference.1 - y);
    }
    volume
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_well_formed_csv() {
        let t = Table::parse("step,cycles\nA,10\nB,5\n", "step,cycles").expect("valid");
        assert_eq!(t.labels(), vec!["A", "B"]);
        assert_eq!(t.numbers("cycles"), Ok(vec![10.0, 5.0]));
        assert!(t.expect_labels(&["A", "B"]).is_ok());
        assert!(t.expect_labels(&["A"]).is_err());
    }

    #[test]
    fn parsers_reject_truncated_and_malformed_input() {
        let header = "step,cycles";
        for bad in [
            "",
            "step,cycles",
            "step,cycles\nA,10",
            "step,cycles\nA,10\nB\n",
            "step,cycles\nA,10,3\n",
            "step,cyc\nA,10\n",
            "\u{0}\u{ff}garbage\n",
        ] {
            assert!(Table::parse(bad, header).is_err(), "accepted {bad:?}");
        }
        let t = Table::parse("step,cycles\nA,ten\n", header).expect("shape is valid");
        assert!(t.numbers("cycles").is_err());
        assert!(t.numbers("missing").is_err());
        let t = Table::parse("step,cycles\nA,inf\n", header).expect("shape is valid");
        assert!(t.numbers("cycles").is_err());
    }

    #[test]
    fn logerr_is_mean_absolute_log_ratio() {
        let e = logerr(&[(2.0, 1.0), (1.0, 2.0), (3.0, 3.0)]).expect("valid");
        assert!((e - 2.0 * 2f64.ln() / 3.0).abs() < 1e-12);
        assert!(logerr(&[]).is_err());
        assert!(logerr(&[(0.0, 1.0)]).is_err());
        assert!(logerr(&[(f64::INFINITY, 1.0)]).is_err());
    }

    #[test]
    fn hypervolume_of_a_hand_computed_three_point_front() {
        // Staircase under (10, 10): [1,4)x[6,10) + [4,7)x[3,10) + [7,10)x[1,10)
        // = 3*4 + 3*7 + 3*9 = 60; the dominated (5, 8) and the point
        // outside the box add nothing.
        let points = [(4.0, 3.0), (1.0, 6.0), (7.0, 1.0), (5.0, 8.0), (11.0, 0.0)];
        assert_eq!(hypervolume(&points, (10.0, 10.0)), 60.0);
        assert_eq!(hypervolume(&[], (10.0, 10.0)), 0.0);
    }
}
