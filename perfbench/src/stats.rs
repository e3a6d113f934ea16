//! Summary statistics, digests and process readings shared by the
//! workloads.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule;
/// `0.0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` and returns its median: the middle value, or
/// the mean of the middle two; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts `values` in place and returns its quantiles `qs`.
pub fn quantiles<const N: usize>(values: &mut [f64], qs: [f64; N]) -> [f64; N] {
    values.sort_by(f64::total_cmp);
    qs.map(|q| quantile(values, q))
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Incremental FNV-1a digest over decoded records, keyed by record id, so
/// two passes agree only if every record decoded to the same values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in one record: its id and decoded values, or a failure mark.
    pub fn record(&mut self, id: u64, values: Option<&[i64]>) {
        self.bytes(&id.to_le_bytes());
        match values {
            Some(vals) => {
                self.bytes(&(vals.len() as u64).to_le_bytes());
                for v in vals {
                    self.bytes(&v.to_le_bytes());
                }
            }
            None => self.bytes(b"failed"),
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_depends_on_ids_and_values() {
        let mut a = Digest::default();
        a.record(1, Some(&[1, 2]));
        let mut b = Digest::default();
        b.record(1, Some(&[2, 1]));
        let mut c = Digest::default();
        c.record(2, Some(&[1, 2]));
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut d = Digest::default();
        d.record(1, Some(&[1, 2]));
        assert_eq!(a, d);
    }
}
