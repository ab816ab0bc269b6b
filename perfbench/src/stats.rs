//! Small measurement helpers: order statistics with their sample counts,
//! answer digests, and the process's peak resident set.

use revere_storage::{Relation, Tuple};
use std::hash::{DefaultHasher, Hash, Hasher};

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sum that is `0.0` (not `-0.0`) when empty.
pub fn total(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |a, b| a + b)
}

/// A percentile together with the samples it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Index in `xs` of the sample at nearest-rank percentile `p`, so a
/// caller can tell which operation sets it.
pub fn rank_index(xs: &[f64], p: f64) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]).then(a.cmp(&b)));
    Some(idx[nearest_rank(xs.len(), p) - 1])
}

/// Nearest-rank percentile `p` in `(0, 1)`. A tail percentile (`p > 0.5`)
/// with fewer than ten samples beyond it is refused: it would be set by a
/// handful of operations.
pub fn percentile(xs: &[f64], p: f64) -> Result<Percentile, String> {
    let Some(i) = rank_index(xs, p) else {
        return Err(format!("p{:.0} of an empty sample", p * 100.0));
    };
    let beyond = xs.len() - nearest_rank(xs.len(), p);
    if p > 0.5 && beyond < 10 {
        return Err(format!(
            "p{:.0} refused: {} samples leave only {beyond} beyond it (need 10)",
            p * 100.0,
            xs.len()
        ));
    }
    Ok(Percentile {
        value: xs[i],
        n: xs.len(),
        beyond,
    })
}

/// Digest of a relation's rows: the row count and a SipHash (fixed keys)
/// over the rows in stored order. Two answers compare equal only when
/// they are identical row for row.
pub fn digest(rel: &Relation) -> (usize, u64) {
    digest_rows(rel.iter())
}

/// [`digest`] over any row sequence.
pub fn digest_rows<'a>(rows: impl Iterator<Item = &'a Tuple>) -> (usize, u64) {
    let mut h = DefaultHasher::new();
    let mut n = 0;
    for row in rows {
        row.hash(&mut h);
        n += 1;
    }
    (n, h.finish())
}

/// Field `key` (in kB) of `/proc/self/status`, converted to MB.
fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) in MB since start or the last reset.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:").unwrap_or(0.0)
}

/// Reset `VmHWM` to the current resident set, so the peak covers only
/// what runs after this call. Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
