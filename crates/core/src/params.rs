//! Tunable parameters for TRIM / TRIM-B / ASTI, and the threshold a
//! fraction of the graph asks for.

use crate::error::AsmError;

/// Parameters of one TRIM (or TRIM-B) invocation. mRR sets always take
/// §3.3's randomized rounding of the root count
/// ([`RootCountDist::Randomized`](smin_sampling::RootCountDist::Randomized)), the
/// distribution Theorem 3.3's unbiasedness rests on.
#[derive(Clone, Copy, Debug)]
pub struct TrimParams {
    /// Approximation slack `ε ∈ (0, 1)`; the paper's experiments use 0.5.
    pub eps: f64,
    /// Optional hard cap on the number of mRR sets per round. `None` uses
    /// the theoretical `θ_max`; tests and interactive examples may cap to
    /// bound worst-case latency (forfeiting the formal guarantee for that
    /// round).
    pub theta_cap: Option<usize>,
    /// Worker threads for sketch generation. `None` resolves via the
    /// `SMIN_THREADS` environment variable, then the machine's available
    /// parallelism. Sketch pools — and therefore seed selections — are
    /// bit-identical for every thread count (per-set counter-derived RNG
    /// streams), so this is purely a performance knob.
    pub threads: Option<usize>,
}

impl TrimParams {
    /// Paper defaults with the given `ε`.
    pub fn with_eps(eps: f64) -> Self {
        TrimParams {
            eps,
            theta_cap: None,
            threads: None,
        }
    }

    /// Sets an explicit sketch-generation thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Validates `ε`.
    pub fn validate(&self) -> Result<(), AsmError> {
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(AsmError::InvalidEps(self.eps));
        }
        Ok(())
    }
}

impl Default for TrimParams {
    fn default() -> Self {
        TrimParams::with_eps(0.5)
    }
}

/// The threshold `η = max(1, round(n · frac))` for a fraction `frac` of the
/// graph's `n` nodes. A fraction outside `(0, 1]`, NaN included, is an error
/// (which callers prefix with their own name for the field), never a silent
/// `η = 1`.
pub fn eta_of_fraction(n: usize, frac: f64) -> Result<usize, String> {
    if frac > 0.0 && frac <= 1.0 {
        Ok(((n as f64) * frac).round().max(1.0) as usize)
    } else {
        Err(format!("must lie in (0, 1], got {frac}"))
    }
}

/// Parameters of an ASTI run.
#[derive(Clone, Copy, Debug)]
pub struct AstiParams {
    /// Per-round TRIM parameters.
    pub trim: TrimParams,
    /// Seeds per round: 1 instantiates TRIM, `b > 1` instantiates TRIM-B
    /// (ASTI-b in the experiments).
    pub batch: usize,
}

impl AstiParams {
    /// Sequential ASTI (batch 1) with the given `ε`.
    pub fn with_eps(eps: f64) -> Self {
        AstiParams {
            trim: TrimParams::with_eps(eps),
            batch: 1,
        }
    }

    /// Batched ASTI-b.
    pub fn batched(eps: f64, batch: usize) -> Self {
        AstiParams {
            trim: TrimParams::with_eps(eps),
            batch,
        }
    }

    /// Validates all fields.
    pub fn validate(&self) -> Result<(), AsmError> {
        self.trim.validate()?;
        if self.batch == 0 {
            return Err(AsmError::InvalidBatch(0));
        }
        Ok(())
    }
}

impl Default for AstiParams {
    fn default() -> Self {
        AstiParams::with_eps(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = AstiParams::default();
        assert_eq!(p.trim.eps, 0.5);
        assert_eq!(p.batch, 1);
        assert_eq!(
            p.trim.threads, None,
            "thread count auto-resolves by default"
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn with_threads_sets_explicit_count() {
        let p = TrimParams::with_eps(0.5).with_threads(4);
        assert_eq!(p.threads, Some(4));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_eps() {
        assert!(TrimParams::with_eps(0.0).validate().is_err());
        assert!(TrimParams::with_eps(1.0).validate().is_err());
        assert!(TrimParams::with_eps(-0.5).validate().is_err());
        assert!(TrimParams::with_eps(f64::NAN).validate().is_err());
        assert!(TrimParams::with_eps(0.99).validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_batch() {
        let p = AstiParams {
            batch: 0,
            ..Default::default()
        };
        assert!(matches!(p.validate(), Err(AsmError::InvalidBatch(0))));
    }
}
