//! Seeded generation, digests, order statistics and process probes.

use std::collections::BTreeMap;

/// SplitMix64: a tiny, well-mixed generator. Every input the benchmark
/// hands the program comes from one of these, seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn unit(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// FNV-1a 64 over the bytes of a textual rendering: the digest of
/// simulated outputs, compared across commits to show a change left the
/// simulated results untouched.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn text(mut self, s: &str) -> Digest {
        for b in s.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a value's full `Debug` rendering.
pub fn digest_of(x: &dyn std::fmt::Debug) -> u64 {
    Digest::new().text(&format!("{x:?}")).finish()
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail latency the benchmark reports: the highest percentile that
/// still has at least ten samples beyond it. Returns `(value, percentile,
/// samples)`; with ten samples or fewer it falls back to the maximum.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let v = sorted(xs);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0, n);
    }
    let k = n - 11;
    (v[k], 100.0 * (k + 1) as f64 / n as f64, n)
}

/// Restrict the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on (CPU 0 tends to carry more of
/// the kernel's own housekeeping). Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // glibc's cpu_set_t: a 1024-bit mask.
    let mut set = [0u64; 16];
    let size = std::mem::size_of_val(&set);
    let os_err = || std::io::Error::last_os_error().to_string();
    // SAFETY: `set` is a writable buffer of `size` bytes; pid 0 names the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, set.as_mut_ptr()) } != 0 {
        return Err(os_err());
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(os_err());
    }
    Ok(cpu)
}

/// Flush the filesystem that holds `path` (`syncfs`).
pub fn sync_fs(path: &std::path::Path) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn syncfs(fd: i32) -> i32;
    }
    let dir = std::fs::File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    // SAFETY: `dir` keeps the descriptor open for the call.
    if unsafe { syncfs(dir.as_raw_fd()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How a deterministic counter combines across the operations of a pass.
#[derive(Clone, Copy)]
pub enum Agg {
    Sum,
    Max,
    Mean,
}

/// Deterministic per-layer counters of one operation, folded over a pass.
#[derive(Default, Clone)]
pub struct Counters {
    vals: BTreeMap<&'static str, (Agg, f64, u64)>,
}

impl Counters {
    pub fn add(&mut self, name: &'static str, agg: Agg, v: f64) {
        let e = self.vals.entry(name).or_insert((agg, 0.0, 0));
        match agg {
            Agg::Sum | Agg::Mean => e.1 += v,
            Agg::Max => e.1 = e.1.max(v),
        }
        e.2 += 1;
    }

    pub fn merge(&mut self, other: &Counters) {
        for (name, &(agg, v, n)) in &other.vals {
            let e = self.vals.entry(name).or_insert((agg, 0.0, 0));
            match agg {
                Agg::Sum | Agg::Mean => e.1 += v,
                Agg::Max => e.1 = e.1.max(v),
            }
            e.2 += n;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        match self.vals.get(name) {
            Some(&(Agg::Mean, v, n)) if n > 0 => v / n as f64,
            Some(&(_, v, _)) => v,
            None => 0.0,
        }
    }

    pub fn render(&self) -> String {
        self.vals
            .keys()
            .map(|k| format!("{k}={}", self.get(k)))
            .collect::<Vec<_>>()
            .join(",")
    }
}
