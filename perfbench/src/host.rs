//! Host readouts from `/proc`: process CPU time, the calling thread's
//! on-CPU and run-queue wait time, and peak resident memory.
//!
//! Process CPU comes from `/proc/self/stat` (user + system ticks of every
//! thread, exited ones included). On-CPU and wait nanoseconds come from
//! `/proc/thread-self/schedstat`. When a file is missing the readout says
//! so and CPU figures fall back to wall time.

use std::time::Instant;

/// `AT_CLKTCK` in the auxiliary vector: the unit of `/proc/self/stat` times.
const AT_CLKTCK: u64 = 17;
/// The tick rate Linux reports on every mainstream architecture.
const DEFAULT_TICKS_PER_S: u64 = 100;

/// Sums `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// Reads `(on-CPU ns, run-queue wait ns)` from a `schedstat` line.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let on_cpu = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((on_cpu, wait))
}

/// Finds `AT_CLKTCK` in a native-endian 64-bit auxiliary vector.
pub fn parse_auxv_clock_ticks(auxv: &[u8]) -> Option<u64> {
    let word = |chunk: &[u8]| u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
    auxv.chunks_exact(16)
        .map(|pair| (word(&pair[..8]), word(&pair[8..])))
        .take_while(|&(key, _)| key != 0)
        .find(|&(key, _)| key == AT_CLKTCK)
        .map(|(_, value)| value)
        .filter(|&hz| hz > 0)
}

/// Which `/proc` sources the system provides.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    ticks_per_s: u64,
    has_stat: bool,
    has_schedstat: bool,
}

impl Probe {
    /// Checks which sources exist once, so every sample reads the same ones.
    pub fn detect() -> Probe {
        let ticks_per_s = std::fs::read("/proc/self/auxv")
            .ok()
            .and_then(|auxv| parse_auxv_clock_ticks(&auxv))
            .unwrap_or(DEFAULT_TICKS_PER_S);
        Probe {
            ticks_per_s,
            has_stat: process_cpu_ticks().is_some(),
            has_schedstat: thread_schedstat().is_some(),
        }
    }

    /// Takes a sample now.
    pub fn sample(&self) -> Sample {
        Sample {
            at: Instant::now(),
            process_ticks: if self.has_stat {
                process_cpu_ticks()
            } else {
                None
            },
            thread: if self.has_schedstat {
                thread_schedstat()
            } else {
                None
            },
        }
    }

    /// What happened between two samples.
    pub fn between(&self, from: &Sample, to: &Sample) -> Interval {
        let wall_ns = to.at.duration_since(from.at).as_nanos() as u64;
        let process_cpu_ns = match (from.process_ticks, to.process_ticks) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a) * 1_000_000_000 / self.ticks_per_s),
            _ => None,
        };
        let thread = match (from.thread, to.thread) {
            (Some(a), Some(b)) => Some((b.0.saturating_sub(a.0), b.1.saturating_sub(a.1))),
            _ => None,
        };
        Interval {
            wall_ns,
            process_cpu_ns,
            thread,
        }
    }

    /// Lines naming every missing source and its fallback.
    pub fn fallback_notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        if !self.has_stat {
            notes.push(
                "host: /proc/self/stat unreadable; CPU metrics fall back to wall time".into(),
            );
        }
        if !self.has_schedstat {
            notes.push(
                "host: /proc/thread-self/schedstat unreadable; run-queue wait unknown, \
                 on-CPU falls back to wall time"
                    .into(),
            );
        }
        notes
    }
}

fn process_cpu_ticks() -> Option<u64> {
    parse_stat_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

fn thread_schedstat() -> Option<(u64, u64)> {
    parse_schedstat(&std::fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// One point in time with the CPU counters read at it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    at: Instant,
    process_ticks: Option<u64>,
    thread: Option<(u64, u64)>,
}

/// Wall time, process CPU and the calling thread's scheduler times between
/// two samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    /// Wall nanoseconds.
    pub wall_ns: u64,
    /// CPU nanoseconds of every thread of the process, if readable.
    pub process_cpu_ns: Option<u64>,
    /// The calling thread's (on-CPU ns, run-queue wait ns), if readable.
    pub thread: Option<(u64, u64)>,
}

impl Interval {
    /// Process CPU, or wall time where `/proc/self/stat` is missing.
    pub fn cpu_ns(&self) -> u64 {
        self.process_cpu_ns.unwrap_or(self.wall_ns)
    }

    /// Adds another interval's times to this one.
    pub fn add(&mut self, other: &Interval) {
        self.wall_ns += other.wall_ns;
        self.process_cpu_ns = match (self.process_cpu_ns, other.process_cpu_ns) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
        self.thread = match (self.thread, other.thread) {
            (Some(a), Some(b)) => Some((a.0 + b.0, a.1 + b.1)),
            _ => None,
        };
    }

    /// Share of the calling thread's runnable time spent waiting for a CPU.
    pub fn runqueue_wait_share(&self) -> Option<f64> {
        self.thread
            .filter(|&(on, wait)| on + wait > 0)
            .map(|(on, wait)| wait as f64 / (on + wait) as f64)
    }

    /// Process CPU over wall time (1.0 = one core busy throughout).
    pub fn cpu_over_wall(&self) -> f64 {
        self.cpu_ns() as f64 / self.wall_ns.max(1) as f64
    }

    /// The host-noise line printed beside every run.
    pub fn describe(&self) -> String {
        let s = |ns: u64| ns as f64 / 1e9;
        let cpu = match self.process_cpu_ns {
            Some(ns) => format!("process cpu {:.3} s", s(ns)),
            None => "process cpu n/a (wall used)".to_string(),
        };
        let thread = match self.thread {
            Some((on, wait)) => format!(
                "main thread on-cpu {:.3} s, run-queue wait {:.3} s ({:.2}%)",
                s(on),
                s(wait),
                100.0 * self.runqueue_wait_share().unwrap_or(0.0)
            ),
            None => "main thread schedstat n/a".to_string(),
        };
        format!("host: wall {:.3} s, {cpu}, {thread}", s(self.wall_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_from_last_paren() {
        // comm "(a) b)" holds a space and a parenthesis; utime=7, stime=5.
        let line = "42 ((a) b)) R 1 42 42 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 3 0 99 1 2";
        assert_eq!(parse_stat_cpu_ticks(line), Some(12));
        assert_eq!(parse_stat_cpu_ticks("42 (x) R 1 2"), None, "truncated line");
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn schedstat_reads_first_two_fields() {
        assert_eq!(parse_schedstat("123456 789 10\n"), Some((123456, 789)));
        assert_eq!(parse_schedstat("123456\n"), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn auxv_finds_clock_ticks_before_terminator() {
        let mut auxv = Vec::new();
        for (k, v) in [(6u64, 4096u64), (AT_CLKTCK, 250), (0, 0), (AT_CLKTCK, 999)] {
            auxv.extend_from_slice(&k.to_ne_bytes());
            auxv.extend_from_slice(&v.to_ne_bytes());
        }
        assert_eq!(parse_auxv_clock_ticks(&auxv), Some(250));
        assert_eq!(parse_auxv_clock_ticks(&auxv[..16]), None, "no AT_CLKTCK");
    }

    #[test]
    fn live_proc_files_parse_on_linux() {
        if cfg!(target_os = "linux") {
            let probe = Probe::detect();
            let a = probe.sample();
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            let b = probe.sample();
            let iv = probe.between(&a, &b);
            assert!(iv.wall_ns > 0);
            assert!(
                probe.fallback_notes().is_empty(),
                "{:?}",
                probe.fallback_notes()
            );
        }
    }

    #[test]
    fn cpu_falls_back_to_wall() {
        let iv = Interval {
            wall_ns: 5,
            process_cpu_ns: None,
            thread: None,
        };
        assert_eq!(iv.cpu_ns(), 5);
        assert_eq!(iv.runqueue_wait_share(), None);
        assert!(iv.describe().contains("n/a"));
    }
}
