//! The correctness gate: a run's final state against its reference.

use agcm_core::par::GlobalState;

/// How close a final state must be to its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Every value bit-for-bit equal.
    Bitwise,
    /// Every value within this absolute difference.
    Abs(f64),
}

/// Largest relative drift per step of the total mass `Σ p'_sa·w` that
/// still counts as bounded.  The flux-form divergence conserves it, but the
/// polar filter and the `P₂` smoothing of `p'_sa` do not exactly: runs from
/// `perturbed_rest` drift by 1–3e-6 per step, so a blow-up or a broken
/// operator exceeds this bound long before a benchmark run ends.
pub const MASS_DRIFT_PER_STEP_MAX: f64 = 1e-5;

/// Outcome of one state comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Largest absolute difference found (0 for bitwise-equal states).
    pub max_abs_diff: f64,
    /// Values that differ (bitwise) or exceed the tolerance.
    pub mismatches: usize,
    /// Why the state fails, if it does.
    pub failure: Option<String>,
}

impl Verdict {
    /// Whether the state passed.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

fn components(s: &GlobalState) -> [(&'static str, &[f64]); 4] {
    [("u", &s.u), ("v", &s.v), ("phi", &s.phi), ("psa", &s.psa)]
}

/// Compare `state` with `reference` under `tol`, requiring every value of
/// `state` to be finite.
pub fn compare(state: &GlobalState, reference: &GlobalState, tol: Tolerance) -> Verdict {
    if state.extents != reference.extents {
        return Verdict {
            max_abs_diff: f64::INFINITY,
            mismatches: 0,
            failure: Some(format!(
                "extents {:?} != reference {:?}",
                state.extents, reference.extents
            )),
        };
    }
    let mut max_abs_diff = 0.0f64;
    let mut mismatches = 0usize;
    let mut nonfinite = 0usize;
    let mut first: Option<String> = None;
    for ((name, a), (_, b)) in components(state).into_iter().zip(components(reference)) {
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            if !x.is_finite() {
                nonfinite += 1;
            }
            let d = (x - y).abs();
            if d.is_finite() {
                max_abs_diff = max_abs_diff.max(d);
            }
            let bad = match tol {
                Tolerance::Bitwise => x.to_bits() != y.to_bits(),
                Tolerance::Abs(t) => d.is_nan() || d > t,
            };
            if bad {
                mismatches += 1;
                first.get_or_insert_with(|| format!("{name}[{i}] = {x:e} vs reference {y:e}"));
            }
        }
    }
    let failure = if nonfinite > 0 {
        Some(format!("{nonfinite} non-finite values in the final state"))
    } else if mismatches > 0 {
        Some(format!(
            "{mismatches} values differ from the reference ({tol:?}); first: {}",
            first.unwrap_or_default()
        ))
    } else {
        None
    };
    Verdict {
        max_abs_diff,
        mismatches,
        failure,
    }
}

/// Relative mass drift `|m1 − m0| / max(|m0|, 1)`.
pub fn mass_drift(m0: f64, m1: f64) -> f64 {
    (m1 - m0).abs() / m0.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(seed: u64) -> GlobalState {
        let (nx, ny, nz) = (8, 4, 3);
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        GlobalState {
            extents: (nx, ny, nz),
            u: (0..nx * ny * nz).map(|_| next()).collect(),
            v: (0..nx * ny * nz).map(|_| next()).collect(),
            phi: (0..nx * ny * nz).map(|_| next()).collect(),
            psa: (0..nx * ny).map(|_| 100.0 * next()).collect(),
        }
    }

    #[test]
    fn identical_states_pass_both_gates() {
        let a = state(1);
        assert!(compare(&a, &a.clone(), Tolerance::Bitwise).ok());
        assert!(compare(&a, &a.clone(), Tolerance::Abs(1e-8)).ok());
    }

    #[test]
    fn perturbed_reference_is_caught() {
        let a = state(2);
        // one ulp on one value: bitwise must fail, 1e-8 must pass
        let mut r = a.clone();
        r.phi[5] = f64::from_bits(r.phi[5].to_bits() + 1);
        let v = compare(&a, &r, Tolerance::Bitwise);
        assert!(!v.ok());
        assert_eq!(v.mismatches, 1);
        assert!(compare(&a, &r, Tolerance::Abs(1e-8)).ok());
        // a 1e-7 perturbation must fail the 1e-8 gate
        let mut r = a.clone();
        r.psa[3] += 1e-7;
        let v = compare(&a, &r, Tolerance::Abs(1e-8));
        assert!(!v.ok() && v.max_abs_diff > 1e-8);
    }

    #[test]
    fn non_finite_state_fails_even_against_itself() {
        let mut a = state(3);
        a.u[0] = f64::NAN;
        assert!(!compare(&a, &a.clone(), Tolerance::Bitwise).ok());
        let mut b = state(3);
        b.v[1] = f64::INFINITY;
        assert!(!compare(&b, &b.clone(), Tolerance::Abs(1e-8)).ok());
    }

    #[test]
    fn extent_mismatch_fails() {
        let a = state(4);
        let mut r = a.clone();
        r.extents.0 += 1;
        assert!(!compare(&a, &r, Tolerance::Bitwise).ok());
    }

    #[test]
    fn mass_drift_is_relative() {
        assert_eq!(mass_drift(100.0, 100.0), 0.0);
        assert!((mass_drift(100.0, 101.0) - 0.01).abs() < 1e-15);
        assert_eq!(mass_drift(0.0, 0.5), 0.5);
    }
}
