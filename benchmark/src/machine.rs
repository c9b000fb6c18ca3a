//! What the harness reads from the machine rather than from the product:
//! peak resident memory, the host reference that timings are normalised by,
//! and the size of the source tree.

use std::path::Path;
use std::time::Instant;

/// Peak resident set of this process in MB (`VmHWM` of `/proc/self/status`):
/// since the process started, or since the last [`reset_peak_rss`] that
/// succeeded. `None` where the file or the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set (`5` into
/// `/proc/self/clear_refs`), so the next [`peak_rss_mb`] is the peak of what
/// ran in between and of nothing before it. `false` where the kernel or the
/// sandbox refuses; the peak then stays the process's.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Sizes of the three reference kernels; each takes about a millisecond.
const ALU_ROUNDS: u64 = 600_000;
const LUT_BYTES: usize = 1 << 20;
const LUT_PASSES: usize = 3;
const COPY_PASSES: usize = 16;

/// What the three kernels read on the sandbox while its neighbours are quiet
/// (the lowest tenth of an afternoon's readings): the host speed every
/// normalised timing is reported at.
pub const QUIET: HostReading = HostReading { alu_ms: 0.87, lut_ms: 0.95, copy_ms: 0.62 };

/// One reading of the host reference: the milliseconds of each kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostReading {
    /// One xorshift dependency chain in registers: the core's clock and how
    /// much of it a busy hyper-thread sibling leaves.
    pub alu_ms: f64,
    /// Byte-indexed table look-ups over 1 MiB, the shape of a packed-symbol
    /// decode: load ports and L1/L2.
    pub lut_ms: f64,
    /// `copy_from_slice` of 1 MiB onto 1 MiB, resident in the private L2:
    /// load and store bandwidth.
    pub copy_ms: f64,
}

impl HostReading {
    /// How much slower than quiet the host runs right now (1.0 = quiet): the
    /// mean of the three kernels' slow-downs. No single kernel follows all
    /// three workloads; the equal mix of these three did best on the worst of
    /// them, and a pointer chase or a sum over 8 MiB (the last-level cache
    /// the host's tenants share) made it worse (README, "Noise").
    pub fn slowness(&self) -> f64 {
        (self.alu_ms / QUIET.alu_ms + self.lut_ms / QUIET.lut_ms + self.copy_ms / QUIET.copy_ms)
            / 3.0
    }
}

/// The host reference: three fixed kernels, run on the measuring thread right
/// next to what is measured, that tell how fast the host runs *now*.
///
/// The sandbox's vCPU shares a physical core and a last-level cache with
/// other tenants: a register-only loop takes 1.0x or 1.28x its time and
/// switches every few seconds, memory-bound code drifts by 20-30 % over
/// minutes, and two runs of one commit differ by as much. A timing divided by
/// the slowness read around it repeats two to four times better than the
/// timing itself (README, "Noise"). The kernels run the same code on the same
/// data on every commit, so they cancel the host and nothing of the product.
///
/// 2 MiB in all, filled in a millisecond — cheap enough to drop before the
/// build (so it never sits in `build_peak_rss_mb`) and make again after.
pub struct HostRef {
    lut: Vec<u32>,
    source: Vec<u8>,
    target: Vec<u8>,
    state: u64,
}

impl HostRef {
    pub fn new() -> Self {
        HostRef {
            lut: (0..256u32).map(|i| i.wrapping_mul(0x0101_0101)).collect(),
            source: (0..LUT_BYTES).map(|i| (i * 31) as u8).collect(),
            target: vec![0; LUT_BYTES],
            state: 1,
        }
    }

    pub fn read(&mut self) -> HostReading {
        let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let mut x = self.state | 1;
        for _ in 0..ALU_ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.state = std::hint::black_box(x);
        let alu_ms = ms(start);

        let start = Instant::now();
        let mut sum = 0u32;
        for _ in 0..LUT_PASSES {
            for &byte in &self.source {
                sum = sum.wrapping_add(self.lut[usize::from(byte)]);
            }
            sum = std::hint::black_box(sum);
        }
        let lut_ms = ms(start);

        let start = Instant::now();
        for _ in 0..COPY_PASSES {
            self.target.copy_from_slice(&self.source);
            std::hint::black_box(&mut self.target);
        }
        let copy_ms = ms(start);

        HostReading { alu_ms, lut_ms, copy_ms }
    }
}

/// Lines of non-vendor Rust in the product tree the benchmark runs in
/// (`crates/` minus `crates/vendor/`, `tests/`, `examples/`) — ROADMAP aim 2
/// tracks it next to the performance numbers. 0 when run outside a checkout.
pub fn nonvendor_loc(root: &Path) -> u64 {
    ["crates", "tests", "examples"].iter().map(|dir| count_rs_lines(&root.join(dir))).sum()
}

fn count_rs_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut lines = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "vendor" && name != "target" {
                lines += count_rs_lines(&path);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            lines += std::fs::read(&path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count())
                as u64;
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_covers_what_is_resident_and_resets() {
        let Some(before) = peak_rss_mb() else { return };
        assert!(before > 0.0);
        // While 64 MiB are resident the mark is at least that, whoever reset
        // it in between (tests share the process); once they are freed, a
        // reset takes the mark back below them.
        let spike = vec![1u8; 64 << 20];
        assert_eq!(std::hint::black_box(&spike)[spike.len() - 1], 1);
        let raised = peak_rss_mb().unwrap();
        assert!(raised >= 64.0, "{raised}");
        drop(spike);
        if reset_peak_rss() {
            assert!(peak_rss_mb().unwrap() < raised - 32.0);
        }
    }

    #[test]
    fn a_quiet_reading_has_slowness_one() {
        assert!((QUIET.slowness() - 1.0).abs() < 1e-12);
        let slow_core = HostReading { alu_ms: 1.3 * QUIET.alu_ms, ..QUIET };
        assert!((slow_core.slowness() - 1.1).abs() < 1e-12);
        let reading = HostRef::new().read();
        for ms in [reading.alu_ms, reading.lut_ms, reading.copy_ms] {
            assert!(ms > 0.0 && ms.is_finite());
        }
    }
}
