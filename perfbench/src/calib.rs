//! Host-speed probe: the scale between host seconds and reference
//! seconds.
//!
//! On a shared host the same pass reads up to 60% slower for minutes at
//! a time, as other tenants load the cores this machine's vCPUs sit on
//! and the caches and memory behind them; longer runs do not average
//! that out. So a probe runs before the first timed pass and after every
//! timed pass: fixed, benchmark-owned work on every worker thread at
//! once, part of it over an L2-sized table and part over a table well
//! past L2. A run's mean pass time in host seconds, times [`PROBE_REF_S`]
//! over the run's mean probe, is its *reference seconds*: what the
//! passes would have taken with the probe at its reference time. One
//! probe alone is noisy (±20%); the mean of the probes spread through
//! the run tracks the host's speed over it. No change to the simulator
//! touches the probe, so a faster program reads faster by the same
//! factor. The L2 part alone tracked `grid` and `frame` but missed most
//! of the slowdowns of `store-warm`, which streams 158 MB of trace JSON.
//!
//! Each probe thread keeps its tables for the whole run: on tables
//! freshly allocated from the arenas `daemon-warm`'s server threads had
//! used, one probe thread ran 2x slower, so the probe read the program's
//! allocator state instead of the host. [`tables_mb`] is what they keep
//! resident, which peak-memory readings leave out.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Reference probe seconds: about a probe on two threads of a 2-vCPU
/// Xeon guest whose host is quiet.
pub const PROBE_REF_S: f64 = 0.05;

/// 256 KiB, within L2.
const NEAR_WORDS: usize = 1 << 16;
const NEAR_ROUNDS: usize = 1 << 20;
/// 8 MiB, past L2 and past the second-level TLB's reach in 4 KiB pages.
const FAR_WORDS: usize = 1 << 21;
const FAR_ROUNDS: usize = 1 << 18;

/// One probe thread's tables.
struct Tables {
    near: Vec<u32>,
    far: Vec<u32>,
}

static TABLES: Mutex<Vec<Tables>> = Mutex::new(Vec::new());

fn xorshift(x: &mut u64) -> u32 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x as u32
}

/// Data-dependent loads, stores and multiplies over the near table,
/// refilled first so every probe does the same work.
fn near_kernel(table: &mut [u32], seed: u64) -> u64 {
    let mut x = seed | 1;
    for w in table.iter_mut() {
        *w = xorshift(&mut x);
    }
    let mut acc = 0u64;
    let mut i = (x as usize) % NEAR_WORDS;
    for r in 0..NEAR_ROUNDS {
        let v = table[i] as u64;
        acc = acc
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(v ^ r as u64);
        if acc & 1 == 0 {
            table[i] = table[i].wrapping_add(acc as u32);
        }
        i = ((v as usize) ^ (acc as usize >> 7)) % NEAR_WORDS;
    }
    acc
}

/// Dependent loads over the far table, which is filled once and only
/// read.
fn far_kernel(table: &[u32], seed: u64) -> u64 {
    let mut acc = seed;
    let mut i = (seed as usize) % FAR_WORDS;
    for r in 0..FAR_ROUNDS {
        let v = table[i] as u64;
        acc = acc
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(v ^ r as u64);
        i = ((v as usize) ^ (acc as usize >> 7)) % FAR_WORDS;
    }
    acc
}

/// Host seconds of one probe: the mean over `threads` threads running
/// both kernels at once.
pub fn probe(threads: usize) -> f64 {
    let threads = threads.max(1);
    let mut tables = TABLES.lock().expect("probe tables lock");
    while tables.len() < threads {
        let mut x = tables.len() as u64 + 3;
        tables.push(Tables {
            near: vec![0; NEAR_WORDS],
            far: (0..FAR_WORDS).map(|_| xorshift(&mut x)).collect(),
        });
    }
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = tables
            .iter_mut()
            .take(threads)
            .enumerate()
            .map(|(t, tables)| {
                s.spawn(move || {
                    let seed = black_box(t as u64 + 7);
                    let start = Instant::now();
                    black_box(near_kernel(&mut tables.near, seed));
                    black_box(far_kernel(&tables.far, seed));
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe threads do not panic"))
            .sum()
    });
    total / threads as f64
}

/// MiB the probe tables keep resident: both tables of every probe
/// thread so far, each written in full.
pub fn tables_mb() -> f64 {
    let threads = TABLES.lock().expect("probe tables lock").len();
    (threads * (NEAR_WORDS + FAR_WORDS) * 4) as f64 / (1024.0 * 1024.0)
}

/// Reference seconds of passes that took `host_s` host seconds each,
/// timed among probes that took `probe_s` host seconds each: the mean
/// pass over the mean probe, times [`PROBE_REF_S`].
pub fn reference_s(host_s: &[f64], probe_s: &[f64]) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    mean(host_s) * PROBE_REF_S / mean(probe_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_host_time_at_reference_speed_and_inverse_to_probe_time() {
        let r = PROBE_REF_S;
        assert!((reference_s(&[1.0, 3.0], &[r, r]) - 2.0).abs() < 1e-12);
        assert!((reference_s(&[2.0], &[2.0 * r]) - 1.0).abs() < 1e-12);
        assert!((reference_s(&[2.0, 2.0], &[r, 3.0 * r, 2.0 * r]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probe_is_deterministic_work_on_kept_tables() {
        let near = || near_kernel(&mut vec![0; NEAR_WORDS], 7);
        assert_eq!(near(), near());
        let far = vec![5; FAR_WORDS];
        assert_eq!(far_kernel(&far, 7), far_kernel(&far, 7));
        assert!(probe(2) > 0.0);
        assert!(tables_mb() >= 2.0 * 8.25);
    }
}
