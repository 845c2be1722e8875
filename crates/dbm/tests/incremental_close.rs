//! Differential test for the incremental re-canonicalization paths: the same
//! operation sequences executed with incremental close enabled and disabled
//! must produce bit-identical matrices (the canonical form of a zone is
//! unique), and the extrapolation must stay extensive, canonical and
//! idempotent in both modes.
//!
//! The toggle is process-global, so everything lives in one `#[test]`
//! function; this file is its own test binary and owns the process.

use tempo_dbm::{set_incremental_close, Bound, Clock, Dbm, Relation};

const NUM_CLOCKS: usize = 4;

/// Deterministic xorshift generator — no rand crate in the offline build.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn clock(&mut self) -> Clock {
        Clock(1 + self.below(NUM_CLOCKS as u64) as u32)
    }

    fn bound(&mut self, lo: i64, hi: i64) -> Bound {
        let m = lo + self.below((hi - lo) as u64) as i64;
        Bound::new(m, self.below(2) == 0)
    }
}

/// One random zone-shaping step.  `other` feeds the binary operations so both
/// modes see the same right-hand sides.
fn step(z: &mut Dbm, other: &Dbm, rng: &mut Rng) {
    match rng.below(8) {
        0 => {
            z.up();
        }
        1 => {
            let c = rng.clock();
            let b = rng.bound(0, 50);
            z.constrain(c, Clock::REF, b);
        }
        2 => {
            let c = rng.clock();
            let b = rng.bound(-40, 0);
            z.constrain(Clock::REF, c, b);
        }
        3 => {
            let (a, b) = (rng.clock(), rng.clock());
            if a != b {
                let bd = rng.bound(-25, 25);
                z.constrain(a, b, bd);
            }
        }
        4 => {
            let c = rng.clock();
            z.reset(c, rng.below(20) as i64);
        }
        5 => {
            let c = rng.clock();
            z.free(c);
        }
        6 => {
            let c = rng.clock();
            let delta = rng.below(21) as i64 - 10;
            z.shift(c, delta);
        }
        _ => {
            z.intersect(other);
        }
    }
}

/// Replays `steps` operations from `seed` in the current mode and returns the
/// intermediate fingerprints plus the final zone.
fn replay(seed: u64, steps: usize) -> (Vec<u64>, Dbm) {
    let mut rng = Rng(seed);
    let mut z = Dbm::zero(NUM_CLOCKS);
    z.up();
    // A fixed companion zone for the intersection steps, derived from the
    // same seed so both modes agree on it.
    let mut other = Dbm::zero(NUM_CLOCKS);
    other.up();
    other.constrain(Clock(1), Clock::REF, rng.bound(5, 60));
    other.constrain(Clock::REF, Clock(2), rng.bound(-30, 0));
    let mut trace = Vec::with_capacity(steps);
    for _ in 0..steps {
        if z.is_empty() {
            z = Dbm::zero(NUM_CLOCKS);
            z.up();
        }
        step(&mut z, &other, &mut rng);
        trace.push(z.fingerprint());
    }
    (trace, z)
}

fn assert_bit_identical(a: &Dbm, b: &Dbm, seed: u64) {
    assert_eq!(a.is_empty(), b.is_empty(), "emptiness diverges (seed {seed})");
    if a.is_empty() {
        return;
    }
    for i in 0..=NUM_CLOCKS as u32 {
        for j in 0..=NUM_CLOCKS as u32 {
            assert_eq!(
                a.get(Clock(i), Clock(j)),
                b.get(Clock(i), Clock(j)),
                "entry ({i}, {j}) diverges (seed {seed})"
            );
        }
    }
}

#[test]
fn incremental_and_full_close_agree() {
    for seed in 1..=64u64 {
        // Constrain / shift / intersect re-canonicalize to the *unique*
        // canonical form, so the two modes must agree bit-for-bit on every
        // intermediate matrix.
        set_incremental_close(true);
        let (fast_trace, fast) = replay(seed, 40);
        set_incremental_close(false);
        let (slow_trace, slow) = replay(seed, 40);
        set_incremental_close(true);
        assert_eq!(fast_trace, slow_trace, "trace diverges (seed {seed})");
        assert_bit_identical(&fast, &slow, seed);

        // Extrapolation: one batch widening followed by a full close in both
        // modes (the toggle does not reach it); the result must be extensive
        // and canonical, and must contain the un-extrapolated zone.
        let bounds: Vec<i64> = std::iter::once(0)
            .chain((1..=NUM_CLOCKS as u64).map(|i| ((seed * i) % 30) as i64))
            .collect();
        for enabled in [true, false] {
            set_incremental_close(enabled);
            let mut e = fast.clone();
            e.extrapolate_lu(&bounds, &bounds);
            assert!(e.includes(&fast), "not extensive (seed {seed}, {enabled})");
            // Canonicity is a property of the representation, not the zone:
            // a full re-close must not tighten any entry.
            let mut reclosed = e.clone();
            reclosed.close();
            assert_bit_identical(&reclosed, &e, seed);
            // The result must be a fixpoint of the widening, so a second
            // application must change nothing.  Termination of the explorer
            // depends on this: fixpoints have every finite entry bounded by
            // the constant tables, so only finitely many extrapolated zones
            // exist per location.
            let once = e.clone();
            e.extrapolate_lu(&bounds, &bounds);
            assert_eq!(
                e.relation(&once),
                Relation::Equal,
                "not idempotent (seed {seed}, incremental {enabled})"
            );
        }
        set_incremental_close(true);
    }
}
