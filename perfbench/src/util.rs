//! Small helpers shared by the workloads: a seeded generator, a Zipf
//! sampler, order statistics, a process clock, CPU affinity and a minimal
//! reader for the server's `STATS JSON` object.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// splitmix64: a small, fast, seedable generator. Workload inputs are a
/// pure function of the seed, so every run with one seed sends the same
/// requests.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is far below anything
    /// a benchmark can see).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipf(s) over `0..n` by inverse CDF; rank 0 is the hottest key.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nanoseconds since the first call in this process: one clock for every
/// span, so spans recorded on different threads compare directly.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The `q` quantile of `values` (sorted in place), by linear interpolation
/// between closest ranks. `NaN` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Length of the slices a measured phase is cut into.
pub const SLICE_NS: u64 = 100_000_000;

/// Where in the spread of per-slice (or per-group) figures a run's figure is
/// read: at the calm end, the 90th percentile of speed. The host is shared
/// and its speed drifts by tens of percent over seconds (a neighbour's
/// load only ever slows the program down), so the middle of a run follows
/// the host while its calm end follows the program; a code change moves
/// every slice, the calm ones too.
pub const CALM: f64 = 0.9;

/// The calm end of figures where lower is better (durations, latencies).
pub fn calm_low(values: &mut [f64]) -> f64 {
    quantile(values, 1.0 - CALM)
}

/// The calm end of figures where higher is better (rates).
pub fn calm_high(values: &mut [f64]) -> f64 {
    quantile(values, CALM)
}

/// Durations taken one after another, in groups of `group`: the calm end
/// of the groups' medians. A group's median shrugs off a lone preempted
/// sample; the calm end of the groups shrugs off a slow spell of the host.
pub fn calm_median(samples: &[f64], group: usize) -> f64 {
    let mut medians: Vec<f64> = samples
        .chunks(group)
        .map(|g| median(&mut g.to_vec()))
        .collect();
    calm_low(&mut medians)
}

/// A log-linear histogram of nanosecond values: exact below 128, then 64
/// buckets per power of two (within 1.6%). Fixed size, so recording never
/// allocates and the benchmark's own memory does not vary with throughput.
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

const SUB_BUCKETS: usize = 64;
const BUCKETS: usize = (64 - 6) * SUB_BUCKETS;

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < 2 * SUB_BUCKETS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize;
        (exp - 6) * SUB_BUCKETS + (v >> (exp - 6)) as usize
    }

    /// `(lowest value, width)` of bucket `b`.
    fn range(b: usize) -> (f64, f64) {
        if b < 2 * SUB_BUCKETS {
            return (b as f64, 1.0);
        }
        let width = (1u64 << (b / SUB_BUCKETS - 1)) as f64;
        let mantissa = b % SUB_BUCKETS + SUB_BUCKETS;
        (mantissa as f64 * width, width)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// The `q` quantile, placed inside its bucket by its rank among the
    /// bucket's samples (as if they were spread evenly across it).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = q * (self.total - 1) as f64;
        let mut below = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            let n = u64::from(n);
            if rank < (below + n) as f64 {
                let (low, width) = Self::range(b);
                return low + width * (rank - below as f64 + 0.5) / n as f64;
            }
            below += n;
        }
        unreachable!("rank is below the total count")
    }
}

/// A measured phase cut into slices of `SLICE_NS`, counting completions and
/// latencies per slice, so that each figure can be reported at its calm end
/// over slices (see [`CALM`]): a host hiccup or a slow spell of the host
/// spoils some slices, not the run's figure. Slices start at the first
/// event.
#[derive(Default)]
pub struct Recorder {
    start: Option<u64>,
    done: Vec<u64>,
    latency: Vec<Histogram>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    fn slot(&mut self, t: u64) -> usize {
        let start = *self.start.get_or_insert(t);
        let i = (t.saturating_sub(start) / SLICE_NS) as usize;
        while self.done.len() <= i {
            self.done.push(0);
            self.latency.push(Histogram::new());
        }
        i
    }

    /// `n` operations completed at `t`.
    pub fn done(&mut self, t: u64, n: u64) {
        let i = self.slot(t);
        self.done[i] += n;
    }

    /// An operation completed at `t` took `ns`.
    pub fn latency(&mut self, t: u64, ns: u64) {
        let i = self.slot(t);
        self.latency[i].record(ns);
    }

    /// The slices wholly inside the phase ending at `end`, and their length
    /// in seconds; a phase shorter than one slice counts as one.
    fn whole(&self, end: u64) -> (usize, f64) {
        let span = end.saturating_sub(self.start.unwrap_or(end));
        match (span / SLICE_NS) as usize {
            0 => (1, span.max(1) as f64 / 1e9),
            n => (n.min(self.done.len()), SLICE_NS as f64 / 1e9),
        }
    }

    /// The calm end over slices of the operations completed per second.
    pub fn calm_rate(&self, end: u64) -> f64 {
        let (n, seconds) = self.whole(end);
        let mut rates: Vec<f64> = self
            .done
            .iter()
            .take(n)
            .map(|&d| d as f64 / seconds)
            .collect();
        calm_high(&mut rates)
    }

    /// The calm end over slices of each slice's `q` latency quantile, in ns.
    pub fn calm_quantile(&self, end: u64, q: f64) -> f64 {
        let (n, _) = self.whole(end);
        let mut per: Vec<f64> = self
            .latency
            .iter()
            .take(n)
            .map(|h| h.quantile(q))
            .filter(|v| v.is_finite())
            .collect();
        calm_low(&mut per)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free pages back to the kernel, so that the next
/// allocations fault in fresh ones.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only releases memory no allocation holds.
    unsafe { malloc_trim(0) };
}

/// Bytes in the kernel's default `cpu_set_t`.
const CPU_SET_BYTES: usize = 128;

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> std::io::Result<Vec<usize>> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpus: Vec<usize> = (0..CPU_SET_BYTES * 8)
        .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect();
    if cpus.is_empty() {
        return Err(std::io::Error::other("empty CPU affinity mask"));
    }
    Ok(cpus)
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to `cpu`.
pub fn pin_to(cpu: usize) -> std::io::Result<()> {
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

/// Restricts every thread of this process that exists now to `cpu`.
pub fn pin_process_to(cpu: usize) -> std::io::Result<()> {
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    for task in std::fs::read_dir("/proc/self/task")? {
        let Some(tid) = task?
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        else {
            continue;
        };
        // SAFETY: `one` is a readable buffer of exactly the size passed. A
        // thread that exited since the listing makes the call fail
        // harmlessly with ESRCH.
        let rc = unsafe { sched_setaffinity(tid, CPU_SET_BYTES, one.as_ptr()) };
        if rc != 0 && std::io::Error::last_os_error().raw_os_error() != Some(3) {
            return Err(std::io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Flattens a `STATS JSON` object (nested objects of unsigned integers,
/// the only shape the server emits) into dotted paths, e.g.
/// `"net.net_flush_syscalls_total"` or `"resize.resize_step_ns.sum"`.
pub fn parse_stats_json(text: &str) -> Result<BTreeMap<String, u64>, String> {
    fn object(
        bytes: &[u8],
        pos: &mut usize,
        prefix: &str,
        out: &mut BTreeMap<String, u64>,
    ) -> Result<(), String> {
        expect(bytes, pos, b'{')?;
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            expect(bytes, pos, b'"')?;
            let start = *pos;
            while bytes.get(*pos).is_some_and(|&b| b != b'"') {
                *pos += 1;
            }
            let key = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            let path = if prefix.is_empty() {
                key.to_string()
            } else {
                format!("{prefix}.{key}")
            };
            expect(bytes, pos, b'"')?;
            expect(bytes, pos, b':')?;
            if bytes.get(*pos) == Some(&b'{') {
                object(bytes, pos, &path, out)?;
            } else {
                let start = *pos;
                while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
                let digits = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                let value = digits
                    .parse()
                    .map_err(|_| format!("bad number for {path} at byte {start}"))?;
                out.insert(path, value);
            }
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("unexpected byte at {pos}")),
            }
        }
    }
    fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&want) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", want as char))
        }
    }
    let mut out = BTreeMap::new();
    let mut pos = 0;
    object(text.trim().as_bytes(), &mut pos, "", &mut out)?;
    Ok(out)
}

/// Difference of one counter between two scrapes (0 when absent).
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, key: &str) -> u64 {
    after
        .get(key)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(key).copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.25), 2.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for q in [0.5, 0.99] {
            let exact = q * 1e6;
            assert!(
                (h.quantile(q) - exact).abs() / exact < 0.02,
                "q{q}: {}",
                h.quantile(q)
            );
        }
        let mut small = Histogram::new();
        small.record(5);
        assert!((5.0..6.0).contains(&small.quantile(0.5)));
    }

    #[test]
    fn recorder_reports_a_calm_slice() {
        // Ten whole slices; slices 2 and 7 are slow (one op instead of
        // four, and a long latency). Events after the phase's end are
        // ignored.
        let mut r = Recorder::new();
        for slice in 0..11u64 {
            let slow = slice == 2 || slice == 7;
            for i in 0..if slow { 1 } else { 4 } {
                let t = slice * SLICE_NS + i;
                r.done(t, 1);
                r.latency(t, if slow { 1000 } else { 10 });
            }
        }
        let end = 10 * SLICE_NS;
        assert_eq!(r.calm_rate(end), 4.0 / (SLICE_NS as f64 / 1e9));
        assert!((10.0..11.0).contains(&r.calm_quantile(end, 0.99)));
    }

    #[test]
    fn calm_median_skips_slow_groups_and_lone_outliers() {
        // Groups of five: two slow spells, and one preempted sample in an
        // otherwise fast group.
        let mut samples = vec![10.0; 50];
        samples[7] = 500.0;
        for slow in [20, 21, 22, 23, 24, 40, 41, 42, 43, 44] {
            samples[slow] = 30.0;
        }
        assert_eq!(calm_median(&samples, 5), 10.0);
        let mut rates = vec![
            1.0, 9.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0,
        ];
        assert_eq!(calm_high(&mut rates), 10.0);
    }

    #[test]
    fn stats_json_flattens_nested_objects() {
        let map = parse_stats_json(r#"{"a":{"b":1,"c":{"p50":7}},"d":42}"#).unwrap();
        assert_eq!(map["a.b"], 1);
        assert_eq!(map["a.c.p50"], 7);
        assert_eq!(map["d"], 42);
        assert!(parse_stats_json(r#"{"a":x}"#).is_err());
    }

    #[test]
    fn zipf_prefers_low_ranks_and_repeats_per_seed() {
        let zipf = Zipf::new(1000, 0.99);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        let hot = a.iter().filter(|&&r| r < 10).count();
        assert!(hot > 2000 / 4, "top-10 ranks drew only {hot} of 2000");
    }
}
