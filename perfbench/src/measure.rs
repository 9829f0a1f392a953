//! Measurement helpers: order statistics, process CPU and memory via
//! `getrusage(2)`, and the benchmark-side span recorder of the traced run.

use std::time::Instant;

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Milliseconds elapsed between two instants.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub ru_maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const RUSAGE_SELF: i32 = 0;
    pub const RUSAGE_CHILDREN: i32 = -1;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

fn rusage(who: i32) -> ffi::Rusage {
    let mut usage = ffi::Rusage::default();
    // SAFETY: `usage` is a live, exclusively borrowed `struct rusage` with
    // the kernel's layout on 64-bit Linux; `getrusage` only writes into it.
    let rc = unsafe { ffi::getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_secs(u: &ffi::Rusage) -> f64 {
    let tv = |t: &ffi::Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    tv(&u.ru_utime) + tv(&u.ru_stime)
}

/// User plus system CPU seconds of this process (all threads).
pub fn self_cpu_secs() -> f64 {
    cpu_secs(&rusage(ffi::RUSAGE_SELF))
}

/// User plus system CPU seconds of every reaped child process.
pub fn children_cpu_secs() -> f64 {
    cpu_secs(&rusage(ffi::RUSAGE_CHILDREN))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage(ffi::RUSAGE_SELF).ru_maxrss as f64 / 1024.0
}

/// One benchmark-side span: a call from the benchmark into one layer.
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span store of one run.  Disabled recorders call straight
/// through, so untraced episodes pay one branch per call.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            enabled: false,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `name`, attributed to `layer`.
    pub fn time<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: 0.0,
        });
        self.open.push(index);
        let out = f();
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        own
    }

    /// Summed self time per `(layer, name)`, in recording order of first
    /// appearance: `(layer, name, calls, self_ms)`.
    pub fn summary(&self) -> Vec<(&'static str, &'static str, usize, f64)> {
        let own = self.self_times();
        let mut out: Vec<(&'static str, &'static str, usize, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match out.iter_mut().find(|e| e.0 == s.layer && e.1 == s.name) {
                Some(e) => {
                    e.2 += 1;
                    e.3 += t / 1e3;
                }
                None => out.push((s.layer, s.name, 1, t / 1e3)),
            }
        }
        out
    }

    /// The spans as one JSON document sharing the run id.
    pub fn to_json(&self, run_id: &str) -> String {
        let own = self.self_times();
        let mut out = format!("{{\"run\": \"{run_id}\", \"spans\": [\n");
        for (i, (s, t)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \
                 \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}{}\n",
                s.layer,
                s.name,
                s.start_us,
                s.end_us,
                t,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}
