//! Speed correction for a shared host.
//!
//! The benchmark's host lends its two cores to other tenants: over two
//! minutes a fixed loop's time wandered between 8.6 and 15.8 ms, in bursts
//! lasting seconds, and at busy times the raw lower decile of one
//! workload moved by 50% between runs minutes apart. A burst slows every
//! operation it overlaps, so a run's raw timings move with how much of it
//! bursts covered, whatever the code does.
//!
//! Each timed operation is therefore paired with a probe: a fixed loop of
//! benchmark code timed right before the operation. The operation's time
//! is divided by the probe's and multiplied by the probe's nominal time,
//! [`NOMINAL_MS`]: milliseconds at the machine's reference speed. The
//! probe is a small interpreter: it dispatches a fixed random opcode
//! stream over eight registers, with data-dependent branches and loads
//! from a 32 MiB table. It stresses what the program's own interpreters
//! and compiler stress (dispatch, branch prediction, instruction-level
//! parallelism, the cache hierarchy), so another tenant that competes for
//! the core or its caches slows it as it slows the program. On a busy
//! host, six `traverse` runs gave corrected lower deciles that spread
//! (interquartile range over median) 12%, against 26% uncorrected and
//! 19% with an earlier probe of one dependent arithmetic chain and a
//! pointer chase, whose latency-bound loops hardly notice a competitor
//! sharing the core. The probe shares no code with the program, so a
//! change to the program moves the corrected time exactly as it moves
//! the raw one; only the host's speed cancels. It runs while nothing else
//! of the benchmark runs.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The probe's time at reference speed, by definition: its loop length
/// makes it take about this long on the benchmark's host when no other
/// tenant competes.
pub const NOMINAL_MS: f64 = 1.0;

/// Opcodes the probe dispatches.
const STEPS: usize = 80_000;
/// Entries of the probe's data table (4 bytes each: 32 MiB).
const TABLE_LEN: usize = 8 << 20;
/// Length of the probe's opcode stream (it wraps around).
const CODE_LEN: usize = 1 << 14;

/// A xorshift stream of `len` values.
fn noise(len: usize, mut x: u64) -> impl Iterator<Item = u64> {
    (0..len).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    })
}

/// The probe's data table and opcode stream, built once.
fn tables() -> &'static (Vec<u32>, Vec<u8>) {
    static TABLES: OnceLock<(Vec<u32>, Vec<u8>)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let table = noise(TABLE_LEN, 0x2545_F491_4F6C_DD1D)
            .map(|x| x as u32)
            .collect();
        let code = noise(CODE_LEN, 0x9E37_79B9_7F4A_7C15)
            .map(|x| (x & 7) as u8)
            .collect();
        (table, code)
    })
}

/// Builds the probe's tables (about 0.1 s), so no timed probe pays for
/// them.
pub fn init() {
    tables();
}

/// Times the probe once, in milliseconds.
fn probe() -> f64 {
    let (table, code) = tables();
    let start = Instant::now();
    let mut r = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    let mut pc = 0usize;
    for _ in 0..STEPS {
        let op = code[pc % CODE_LEN];
        pc += 1;
        match op {
            0 => r[0] = r[0].wrapping_add(r[1]),
            1 => r[1] ^= r[2].rotate_left(7),
            2 => r[2] = r[2].wrapping_mul(r[3] | 1),
            3 => r[3] = r[3].wrapping_add(u64::from(table[r[0] as usize % TABLE_LEN])),
            4 => {
                // skip the next opcode on odd values
                pc += (r[4] & 1) as usize;
                r[4] = r[4].wrapping_add(r[5]);
            }
            5 => r[5] = r[5].wrapping_sub(r[6] >> 3),
            6 => r[6] ^= u64::from(table[r[7] as usize % TABLE_LEN]),
            _ => r[7] = r[7].wrapping_add(r[0] ^ r[3]),
        }
    }
    black_box(r);
    start.elapsed().as_secs_f64() * 1e3
}

/// Times the probe on `threads` threads at once and returns the slowest,
/// in milliseconds: one thread for an operation on one core, more for an
/// operation that keeps that many cores busy until its last thread
/// finishes (a batch).
pub fn probe_on(threads: usize) -> f64 {
    if threads == 1 {
        return probe();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(probe)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .fold(0.0, f64::max)
    })
}

/// The median of the probes within `half` places of probe `i`: a
/// correction that follows bursts lasting seconds but not one stray slow
/// probe.
pub fn window_median(probes: &[f64], i: usize, half: usize) -> f64 {
    let lo = i.saturating_sub(half);
    let hi = (i + half + 1).min(probes.len());
    crate::stats::median(&probes[lo..hi])
}

/// `ms` measured right after a probe that took `probe_ms`, at reference
/// speed.
pub fn corrected(ms: f64, probe_ms: f64) -> f64 {
    ms * NOMINAL_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_median_ignores_one_stray_probe() {
        let probes = [1.0, 1.1, 3.0, 0.9, 1.0];
        assert_eq!(window_median(&probes, 2, 2), 1.0);
        assert!((window_median(&probes, 0, 1) - 1.05).abs() < 1e-12);
        assert_eq!(window_median(&probes, 2, 0), 3.0);
    }
}
