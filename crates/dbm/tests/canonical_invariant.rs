//! Randomized invariant check: every public mutating DBM operation keeps the
//! matrix in canonical (shortest-path closed) form, so `close` is always a
//! no-op on the result.  This complements the proptest suite by checking the
//! invariant after *every* intermediate operation of long random sequences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempo_dbm::{Bound, Clock, Dbm, Relation};

#[test]
fn operations_preserve_canonical_form() {
    let mut rng = StdRng::seed_from_u64(0xDB0);
    for trial in 0..5000 {
        let mut z = Dbm::zero(3);
        let mut history: Vec<String> = Vec::new();
        for _ in 0..12 {
            let desc = match rng.gen_range(0..7) {
                0 => {
                    z.up();
                    "up".to_string()
                }
                1 => {
                    let c = rng.gen_range(1..=3);
                    let m = rng.gen_range(0..50);
                    let s = rng.gen_bool(0.5);
                    z.constrain(Clock(c), Clock::REF, Bound::new(m, s));
                    format!("x{c} <= {m} (strict={s})")
                }
                2 => {
                    let c = rng.gen_range(1..=3);
                    let m: i64 = rng.gen_range(0..50);
                    let s = rng.gen_bool(0.5);
                    z.constrain(Clock::REF, Clock(c), Bound::new(-m, s));
                    format!("x{c} >= {m} (strict={s})")
                }
                3 => {
                    let a = rng.gen_range(1..=3);
                    let b = rng.gen_range(1..=3);
                    let m = rng.gen_range(-30..30);
                    let s = rng.gen_bool(0.5);
                    if a != b {
                        z.constrain(Clock(a), Clock(b), Bound::new(m, s));
                    }
                    format!("x{a} - x{b} <= {m} (strict={s})")
                }
                4 => {
                    let c = rng.gen_range(1..=3);
                    let v = rng.gen_range(0..20);
                    z.reset(Clock(c), v);
                    format!("reset x{c} := {v}")
                }
                5 => {
                    let c = rng.gen_range(1..=3);
                    z.free(Clock(c));
                    format!("free x{c}")
                }
                _ => {
                    let k: Vec<i64> = (0..4).map(|_| rng.gen_range(0..30)).collect();
                    z.extrapolate_lu(&k, &k);
                    format!("extrapolate_lu {k:?}")
                }
            };
            history.push(desc);
            let mut closed = z.clone();
            closed.close();
            assert_eq!(
                closed.relation(&z),
                Relation::Equal,
                "trial {trial}: canonical form lost after {history:?}\n{z:?}"
            );
            if z.is_empty() {
                break;
            }
        }
    }
}
