//! Two-dimensional cross-validation for hyper-parameter selection (§4.2).
//!
//! The confidence hyper-parameters `(ν₀, κ₀)` encode how much the early
//! stage is trusted; the paper selects them by sweeping a two-dimensional
//! candidate grid (Fig. 2a) and scoring each combination with Q-fold
//! cross-validation on the few late-stage samples (Fig. 2b): fit the BMF
//! MAP estimate on `Q−1` folds, evaluate the Gaussian log-likelihood
//! (Eq. 9) of the held-out fold, and average over the `Q` runs.
//!
//! # The fast scoring path
//!
//! Read literally, the paper's procedure refits the whole estimator per
//! candidate × repeat × fold: fresh sufficient statistics (O(n·d²)) plus a
//! fresh covariance factorisation (O(d³)) for every grid point. This module
//! instead scores from per-fold sufficient statistics (the `FoldScorer`
//! internals). The held-out Gaussian log-likelihood depends on a fold only
//! through its `(n_k, x̄_k, S_k)`, because
//! `Σ_t (x_t−μ)ᵀA⁻¹(x_t−μ) = tr(A⁻¹[S_k + n_k(x̄_k−μ)(x̄_k−μ)ᵀ])`:
//!
//! * per repeat, each fold's `(n_k, x̄_k, S_k)` is accumulated **once**,
//!   indexing the original rows — no shuffled, split or stacked copies;
//! * per (repeat, fold), the other folds pool into the training statistics
//!   `(n, X̄, S)` (parallel-axis theorem), which fix the prior–data gap
//!   `δ = μ_E − X̄` and the held-out scatter about the training mean,
//!   `C = S_k + n_k·vvᵀ` with `v = x̄_k − X̄`;
//! * per feasible ν₀, the base matrix `M(ν₀) = S + (ν₀−d)Σ_E = LLᵀ` is
//!   factorised **once** per fold, into storage reused across ν₀, and
//!   reduced to five scalars: `ln det M`, `g = ẑᵀẑ` with `ẑ = L⁻¹δ`,
//!   `tr W`, `ẑᵀWẑ` and `h = n_k·ẑᵀL⁻¹v`, where `W = L⁻¹CL⁻ᵀ` is the
//!   whitened held-out scatter;
//! * per candidate, the posterior inverse scale differs from `M(ν₀)` only by
//!   the rank-one term `κ₀n/(κ₀+n)·δδᵀ` (Eq. 25) and the MAP covariance by
//!   the scalar `1/(ν₀+n−d)` (Eq. 32), so the matrix determinant lemma and
//!   Sherman–Morrison reduce each (candidate, fold) score to O(1) scalar
//!   arithmetic on those five numbers — independent of the fold size and
//!   of `d`, with no factorisation, solve or allocation in the candidate
//!   loop.
//!
//! The naive per-candidate refit survives behind
//! [`CrossValidation::with_naive_scoring`] as the equivalence oracle; the two
//! paths agree to ≤ 1e-10 per grid score (`tests/cv_equivalence.rs` — exact
//! bit-identity is impossible because the fast path reassociates the same
//! arithmetic). The fast path splits its per-fold precompute over
//! (repeat × fold) work items and then scores the grid in grid order, each
//! candidate's repeats reduced in repeat order — bit-identical at every
//! thread count.

use crate::map::BmfEstimator;
use crate::parallel;
use crate::prior::NormalWishartPrior;
use crate::{BmfError, MomentEstimate, Result};
use bmf_linalg::{Cholesky, Matrix, Vector};
use bmf_stats::{descriptive, MultivariateNormal};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One scored grid point of the CV search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CvGridPoint {
    /// Candidate `κ₀`.
    pub kappa0: f64,
    /// Candidate `ν₀`.
    pub nu0: f64,
    /// Mean held-out log-likelihood per test sample (−∞ when the
    /// combination could not be evaluated).
    pub score: f64,
}

/// The result of one hyper-parameter search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperParameterSelection {
    /// Selected `κ₀`.
    pub kappa0: f64,
    /// Selected `ν₀`.
    pub nu0: f64,
    /// Score of the winning combination.
    pub score: f64,
    /// The full scored grid (paper Fig. 2a), for diagnostics/plots.
    pub grid: Vec<CvGridPoint>,
}

impl HyperParameterSelection {
    /// Distils the scored grid into the health-report surface summary:
    /// the argmax, the *spread* (best score minus the median finite
    /// score — near zero means the surface is flat and the selection
    /// arbitrary), and whether the argmax sits on the **lower** edge of
    /// either hyper-parameter axis as actually searched (the feasible
    /// grid). The upper edge is not flagged: the top of the paper's
    /// `[1, 1000]` grid already means near-total trust in the prior,
    /// whereas the bottom edge suggests the optimum may lie below the
    /// searched range.
    pub fn surface_summary(&self) -> bmf_obs::health::CvSurface {
        let mut finite: Vec<f64> = self
            .grid
            .iter()
            .map(|p| p.score)
            .filter(|s| s.is_finite())
            .collect();
        finite.sort_by(f64::total_cmp);
        let median = if finite.is_empty() {
            f64::NAN
        } else {
            finite[finite.len() / 2]
        };
        let spread = self.score - median;
        let min_kappa = self
            .grid
            .iter()
            .map(|p| p.kappa0)
            .fold(f64::INFINITY, f64::min);
        let min_nu = self
            .grid
            .iter()
            .map(|p| p.nu0)
            .fold(f64::INFINITY, f64::min);
        // A single-point axis has no interior, so its "edge" is not
        // informative; only flag axes with at least two distinct values.
        let kappa_values: std::collections::BTreeSet<u64> =
            self.grid.iter().map(|p| p.kappa0.to_bits()).collect();
        let nu_values: std::collections::BTreeSet<u64> =
            self.grid.iter().map(|p| p.nu0.to_bits()).collect();
        let boundary_hit = (kappa_values.len() > 1 && self.kappa0 == min_kappa)
            || (nu_values.len() > 1 && self.nu0 == min_nu);
        bmf_obs::health::CvSurface {
            kappa0: self.kappa0,
            nu0: self.nu0,
            score: self.score,
            spread,
            boundary_hit,
            severity: bmf_obs::health::classify_cv_surface(spread, boundary_hit),
        }
    }
}

/// Two-dimensional Q-fold cross-validation over a `(κ₀, ν₀)` grid.
///
/// The default reproduces the paper's setup: both axes span `[1, 1000]`
/// (log-spaced, 12 points each — the paper reports non-integer optima such
/// as κ₀ = 4.67, so the grid must be finer than integers), with `Q = 4`
/// folds.
///
/// # Example
///
/// ```
/// use bmf_core::cv::CrossValidation;
///
/// let cv = CrossValidation::default();
/// assert_eq!(cv.fold_count(), 4);
/// assert!(cv.kappa_grid().len() >= 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossValidation {
    kappa_grid: Vec<f64>,
    nu_grid: Vec<f64>,
    q: usize,
    repeats: usize,
    /// Score with the naive per-candidate refit instead of the fast
    /// rank-structured path (equivalence oracle; see the module docs).
    #[serde(default)]
    naive: bool,
}

/// Builds a log-spaced grid over `[lo, hi]` with `points` entries.
fn log_grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    if points == 1 {
        // A single point has no spacing to interpolate; the general
        // formula below would divide by zero and yield NaN.
        return vec![lo];
    }
    let llo = lo.ln();
    let lhi = hi.ln();
    (0..points)
        .map(|k| (llo + (lhi - llo) * k as f64 / (points - 1) as f64).exp())
        .collect()
}

impl Default for CrossValidation {
    fn default() -> Self {
        CrossValidation {
            kappa_grid: log_grid(1.0, 1000.0, 12),
            nu_grid: log_grid(1.0, 1000.0, 12),
            q: 4,
            repeats: 8,
            naive: false,
        }
    }
}

/// Drops exact (bitwise) duplicate grid values, keeping the first
/// occurrence of each; returns the deduplicated grid and the number of
/// entries dropped.
fn dedupe_grid(grid: Vec<f64>) -> (Vec<f64>, usize) {
    let before = grid.len();
    let mut seen = std::collections::HashSet::with_capacity(before);
    let deduped: Vec<f64> = grid
        .into_iter()
        .filter(|v| seen.insert(v.to_bits()))
        .collect();
    let dropped = before - deduped.len();
    (deduped, dropped)
}

/// The stage at which a CV candidate's scoring failed — reported when
/// *every* feasible candidate fails, so the error names the actual
/// culprit instead of misdiagnosing grid feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ScoreFailure {
    /// Prior construction from the early moments (Σ_E not SPD, …).
    Prior,
    /// Sufficient statistics of the training folds (non-finite samples).
    Statistics,
    /// Posterior covariance factorisation.
    Factorisation,
    /// Held-out likelihood evaluation.
    Likelihood,
    /// Fold assembly left every fold empty.
    EmptyFolds,
}

impl ScoreFailure {
    fn describe(self) -> &'static str {
        match self {
            ScoreFailure::Prior => "prior construction from the early moments",
            ScoreFailure::Statistics => "sufficient statistics of the training folds",
            ScoreFailure::Factorisation => "posterior covariance factorisation",
            ScoreFailure::Likelihood => "held-out likelihood evaluation",
            ScoreFailure::EmptyFolds => "fold assembly (every fold empty)",
        }
    }
}

/// The most frequent failure stage across candidates (ties break toward
/// the earlier pipeline stage).
fn dominant_failure(failures: &[ScoreFailure]) -> Option<ScoreFailure> {
    let mut counts = std::collections::BTreeMap::new();
    for &f in failures {
        *counts.entry(f).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(stage, count)| (count, std::cmp::Reverse(stage)))
        .map(|(stage, _)| stage)
}

impl CrossValidation {
    /// Creates a search with explicit grids and fold count.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::InvalidConfig`] for empty grids, non-positive
    /// candidates or `q < 2`.
    pub fn new(kappa_grid: Vec<f64>, nu_grid: Vec<f64>, q: usize) -> Result<Self> {
        Self::with_repeats(kappa_grid, nu_grid, q, 1)
    }

    /// Creates a **repeated** Q-fold search: the fold assignment is
    /// re-randomised `repeats` times and scores are averaged, which
    /// stabilises the argmax when the folds are tiny (e.g. n = 8, Q = 4 →
    /// two-sample test folds).
    ///
    /// Exact duplicate grid values are dropped (first occurrence kept) —
    /// a duplicated candidate would be scored twice for no information
    /// gain — and counted on the `cv.grid_duplicates` warning counter.
    ///
    /// # Errors
    ///
    /// As [`CrossValidation::new`], plus `repeats >= 1`.
    pub fn with_repeats(
        kappa_grid: Vec<f64>,
        nu_grid: Vec<f64>,
        q: usize,
        repeats: usize,
    ) -> Result<Self> {
        if kappa_grid.is_empty() || nu_grid.is_empty() {
            return Err(BmfError::InvalidConfig {
                reason: "hyper-parameter grids must be non-empty".to_string(),
            });
        }
        if q < 2 {
            return Err(BmfError::InvalidConfig {
                reason: format!("need at least 2 folds, got {q}"),
            });
        }
        if repeats == 0 {
            return Err(BmfError::InvalidConfig {
                reason: "need at least one CV repeat".to_string(),
            });
        }
        for &k in &kappa_grid {
            if !(k > 0.0) || !k.is_finite() {
                return Err(BmfError::InvalidConfig {
                    reason: format!("kappa candidate {k} must be positive and finite"),
                });
            }
        }
        for &v in &nu_grid {
            if !(v > 0.0) || !v.is_finite() {
                return Err(BmfError::InvalidConfig {
                    reason: format!("nu candidate {v} must be positive and finite"),
                });
            }
        }
        let (kappa_grid, kappa_dupes) = dedupe_grid(kappa_grid);
        let (nu_grid, nu_dupes) = dedupe_grid(nu_grid);
        let dropped = kappa_dupes + nu_dupes;
        if dropped > 0 {
            bmf_obs::counters::CV_GRID_DUPLICATES.add(dropped as u64);
        }
        Ok(CrossValidation {
            kappa_grid,
            nu_grid,
            q,
            repeats,
            naive: false,
        })
    }

    /// Switches between the fast rank-structured scorer (default,
    /// `naive = false`) and the naive per-candidate refit. The naive path
    /// re-runs a full [`BmfEstimator::estimate`] per candidate × repeat ×
    /// fold exactly as the paper's procedure reads; it is kept as the
    /// equivalence oracle the fast path is tested against
    /// (`tests/cv_equivalence.rs`) and costs O(|grid|·d³) more work.
    #[must_use]
    pub fn with_naive_scoring(mut self, naive: bool) -> Self {
        self.naive = naive;
        self
    }

    /// Whether this search scores with the naive refit oracle.
    pub fn naive_scoring(&self) -> bool {
        self.naive
    }

    /// Number of grid candidates that survive the `ν₀ > d` feasibility
    /// filter for dimension `d` — what one select call actually scores
    /// (used by benches to report candidates/sec).
    pub fn feasible_candidate_count(&self, d: usize) -> usize {
        self.nu_grid
            .iter()
            .filter(|&&nu0| nu0 > d as f64 + 1e-9)
            .count()
            * self.kappa_grid.len()
    }

    /// The κ₀ candidate grid.
    pub fn kappa_grid(&self) -> &[f64] {
        &self.kappa_grid
    }

    /// The ν₀ candidate grid.
    pub fn nu_grid(&self) -> &[f64] {
        &self.nu_grid
    }

    /// Number of folds `Q`.
    pub fn fold_count(&self) -> usize {
        self.q
    }

    /// Number of re-randomised fold assignments averaged per grid point.
    pub fn repeat_count(&self) -> usize {
        self.repeats
    }

    /// Runs the search: scores every `(κ₀, ν₀)` combination by Q-fold CV
    /// on `late_samples` and returns the maximiser.
    ///
    /// Candidates with `ν₀ ≤ d` are skipped (the prior of Eq. 20 requires
    /// `ν₀ > d`); the effective fold count shrinks to `n` when `n < Q`.
    ///
    /// Draws a single root seed from `rng` and delegates to
    /// [`CrossValidation::select_seeded`] on one thread; pass an explicit
    /// seed and thread count there for parallel execution.
    ///
    /// # Errors
    ///
    /// * [`BmfError::InvalidSamples`] when there are fewer than 2 samples
    ///   or dimensions mismatch.
    /// * [`BmfError::InvalidConfig`] when no grid candidate is feasible.
    pub fn select<R: Rng + ?Sized>(
        &self,
        early: &MomentEstimate,
        late_samples: &Matrix,
        rng: &mut R,
    ) -> Result<HyperParameterSelection> {
        self.select_seeded(early, late_samples, rng.next_u64(), 1)
    }

    /// [`CrossValidation::select`] with an explicit root seed and thread
    /// count: the per-(repeat, fold) precompute of the fast path (or, with
    /// naive scoring, the per-candidate refits) runs over `threads` scoped
    /// workers, and the per-repeat fold shuffles are derived from `seed`
    /// (stream [`parallel::streams::CV_FOLD_SHUFFLE`], index = repeat).
    ///
    /// The result is **bit-identical for every `threads` value**: each
    /// work item is computed entirely within one task, each candidate's
    /// repeats are reduced in repeat order, and candidates are combined
    /// in grid order, so neither the random streams nor the
    /// floating-point reduction order depend on scheduling.
    ///
    /// # Errors
    ///
    /// As [`CrossValidation::select`], plus [`BmfError::Worker`] if a
    /// scoring worker panics.
    pub fn select_seeded(
        &self,
        early: &MomentEstimate,
        late_samples: &Matrix,
        seed: u64,
        threads: usize,
    ) -> Result<HyperParameterSelection> {
        let _span = bmf_obs::span("cv.select");
        early.validate()?;
        let d = early.dim();
        let n = late_samples.nrows();
        if n < 2 {
            return Err(BmfError::InvalidSamples {
                reason: format!("cross-validation needs at least 2 late-stage samples, got {n}"),
            });
        }
        if late_samples.ncols() != d {
            return Err(BmfError::InvalidSamples {
                reason: format!(
                    "late samples have {} columns, early moments have {d}",
                    late_samples.ncols()
                ),
            });
        }

        // Feasible candidate pairs (Eq. 20 needs ν₀ > d), built ν-major so
        // candidate `c` maps to feasible-ν index `c / kappa_grid.len()`.
        let nu_values: Vec<f64> = self
            .nu_grid
            .iter()
            .copied()
            .filter(|&nu0| nu0 > d as f64 + 1e-9)
            .collect();
        let candidates: Vec<(f64, f64)> = nu_values
            .iter()
            .flat_map(|&nu0| self.kappa_grid.iter().map(move |&kappa0| (kappa0, nu0)))
            .collect();
        if candidates.is_empty() {
            return Err(BmfError::InvalidConfig {
                reason: format!(
                    "no feasible (kappa0, nu0) candidate for d = {d}: every nu0 in the \
                     grid is <= d, but the prior of Eq. 20 requires nu0 > d; extend the \
                     nu grid above {d}"
                ),
            });
        }

        // Score the grid; this is the hot loop. The fast path reduces every
        // (repeat, fold) to a few scalars per ν₀ up front, after which each
        // candidate costs O(1) per fold; the naive path refits per candidate
        // exactly as the paper reads. Both accumulate each candidate's score
        // in repeat order, so the reduction is scheduling-invariant at every
        // thread count.
        bmf_obs::counters::CV_CANDIDATES.add(candidates.len() as u64);
        let q = self.q.min(n);
        let repeats_f = self.repeats as f64;
        let scored: Vec<(f64, Option<ScoreFailure>)> = if self.naive {
            let fold_sets = self.naive_fold_sets(late_samples, q, seed)?;
            parallel::map_slice(&candidates, threads, |_, &(kappa0, nu0)| {
                let _span = bmf_obs::span("cv.candidate");
                let mut score = 0.0_f64;
                let mut failure = None;
                for (training, folds) in &fold_sets {
                    let (s, f) = self.score_combination(early, kappa0, nu0, training, folds);
                    score += s / repeats_f;
                    failure = failure.or(f);
                }
                (score, failure)
            })?
        } else {
            let scorer = FoldScorer::build(
                early,
                late_samples,
                &nu_values,
                q,
                self.repeats,
                seed,
                threads,
            )?;
            candidates
                .iter()
                .enumerate()
                .map(|(c, &(kappa0, nu0))| scorer.score(kappa0, nu0, c / self.kappa_grid.len()))
                .collect()
        };

        let mut grid = Vec::with_capacity(candidates.len());
        let mut best: Option<CvGridPoint> = None;
        let mut failures: Vec<ScoreFailure> = Vec::new();
        for (&(kappa0, nu0), &(score, failure)) in candidates.iter().zip(scored.iter()) {
            let point = CvGridPoint { kappa0, nu0, score };
            grid.push(point);
            if let Some(f) = failure {
                failures.push(f);
            }
            let better = match best {
                None => score.is_finite(),
                Some(b) => score > b.score,
            };
            if better {
                best = Some(point);
            }
        }

        if !failures.is_empty() {
            bmf_obs::event!(Warn, "cv.candidate_failed",
                "failed": failures.len(),
                "candidates": candidates.len(),
                "dominant": dominant_failure(&failures).map_or("unknown", ScoreFailure::describe));
        }

        let Some(best) = best else {
            // The grid *was* feasible (the empty-candidate case returned
            // above), yet no candidate produced a finite score — a scoring
            // failure, not a grid-feasibility one. Name the stage.
            let stage = dominant_failure(&failures).map_or(
                "held-out likelihood evaluation (no finite score)",
                ScoreFailure::describe,
            );
            return Err(BmfError::InvalidConfig {
                reason: format!(
                    "all {} feasible (kappa0, nu0) candidates failed to score for d = {d} \
                     (failing stage: {stage}); the nu grid is feasible, so check the early \
                     moments and late samples rather than the grid",
                    candidates.len()
                ),
            });
        };
        Ok(HyperParameterSelection {
            kappa0: best.kappa0,
            nu0: best.nu0,
            score: best.score,
            grid,
        })
    }

    /// The naive path's row matrices: per repeat, the `q` held-out folds
    /// of that repeat's shuffle and the `q` training sets (all folds but
    /// one), stacked.
    fn naive_fold_sets(
        &self,
        late_samples: &Matrix,
        q: usize,
        seed: u64,
    ) -> Result<Vec<(Vec<Matrix>, Vec<Matrix>)>> {
        let (n, d) = late_samples.shape();
        (0..self.repeats)
            .map(|rep| {
                let order = fold_order(seed, rep, n);
                let shuffled = Matrix::from_fn(n, d, |i, j| late_samples[(order[i], j)]);
                let folds = descriptive::split_folds(&shuffled, q)?;
                let training = (0..q)
                    .map(|k| {
                        let parts: Vec<&Matrix> = folds
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != k)
                            .map(|(_, f)| f)
                            .collect();
                        descriptive::vstack(&parts)
                    })
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                Ok((training, folds))
            })
            .collect()
    }

    /// Scores one combination with the naive per-candidate refit: mean
    /// held-out per-sample log-likelihood, plus the failing stage when the
    /// score is −∞. This is the equivalence oracle for the fast path.
    fn score_combination(
        &self,
        early: &MomentEstimate,
        kappa0: f64,
        nu0: f64,
        training: &[Matrix],
        folds: &[Matrix],
    ) -> (f64, Option<ScoreFailure>) {
        let prior = match NormalWishartPrior::from_early_moments(early, kappa0, nu0) {
            Ok(p) => p,
            Err(_) => return (f64::NEG_INFINITY, Some(ScoreFailure::Prior)),
        };
        let estimator = match BmfEstimator::new(prior) {
            Ok(e) => e,
            Err(_) => return (f64::NEG_INFINITY, Some(ScoreFailure::Prior)),
        };
        let mut total = 0.0;
        let mut count = 0usize;
        for (train, test) in training.iter().zip(folds.iter()) {
            if test.nrows() == 0 || train.nrows() == 0 {
                continue;
            }
            bmf_obs::counters::CV_FOLD_EVALS.incr();
            let est = match estimator.estimate(train) {
                Ok(e) => e,
                Err(_) => return (f64::NEG_INFINITY, Some(ScoreFailure::Statistics)),
            };
            let model = match MultivariateNormal::new(est.map.mean.clone(), est.map.cov.clone()) {
                Ok(m) => m,
                Err(_) => return (f64::NEG_INFINITY, Some(ScoreFailure::Factorisation)),
            };
            match model.ln_likelihood(test) {
                Ok(ll) => {
                    total += ll;
                    count += test.nrows();
                }
                Err(_) => return (f64::NEG_INFINITY, Some(ScoreFailure::Likelihood)),
            }
        }
        if count == 0 {
            (f64::NEG_INFINITY, Some(ScoreFailure::EmptyFolds))
        } else {
            (total / count as f64, None)
        }
    }
}

/// The row order of repeat `rep`'s fold assignment: a shuffle drawn from
/// its own derived seed, so it is independent of both thread count and
/// the caller's RNG state. Position `i` of the order belongs to fold
/// `i % q` (the membership of [`descriptive::split_folds`]).
fn fold_order(seed: u64, rep: usize, n: usize) -> Vec<usize> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(parallel::derive_seed(
        seed,
        parallel::streams::CV_FOLD_SHUFFLE,
        rep as u64,
    ));
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    order
}

/// The hoisted state of one fast CV search: for every (repeat, fold) and
/// feasible ν₀, the five scalars each candidate of that ν₀ scores from,
/// built once outside the candidate loop and then read by it.
struct FoldScorer {
    d: usize,
    /// `folds[rep][fold]`; `None` marks a degenerate (empty) split that
    /// the scorer skips, mirroring the naive path's `continue`.
    folds: Vec<Vec<Option<FoldTerms>>>,
    /// A condition that fails every candidate identically (non-SPD early
    /// covariance, non-finite samples), detected once up front instead of
    /// once per candidate as the naive path does.
    global_failure: Option<ScoreFailure>,
}

/// Sufficient statistics `(n, x̄, S)` of one fold's rows.
struct FoldStats {
    n: usize,
    mean: Vector,
    scatter: Matrix,
}

/// Per-(repeat, fold) terms: the split's sizes and, per feasible ν₀, the
/// scalars of its base factor.
struct FoldTerms {
    /// Held-out rows `n_k`.
    n_hold: usize,
    /// Training rows `n` (all other folds).
    n_train: f64,
    /// Per feasible ν₀ (indexed like `nu_values`); `None` when `M(ν₀)` is
    /// not SPD.
    nus: Vec<Option<NuTerms>>,
}

/// The candidate-independent scalars of one fold's base factor
/// `L Lᵀ = M(ν₀) = S + (ν₀−d)Σ_E`, with `ẑ = L⁻¹δ` (`δ = μ_E − X̄`, Eq. 24's
/// blend axis) and `W = L⁻¹CL⁻ᵀ` the whitened held-out scatter about the
/// training mean.
struct NuTerms {
    /// `ln det M(ν₀)`.
    ln_det_m: f64,
    /// `g = ẑᵀẑ = δᵀM⁻¹δ`.
    g: f64,
    /// `tr W = Σ_t ‖ŷ_t‖²`, with `ŷ_t = L⁻¹(x_t − X̄)` per held-out row.
    tr_w: f64,
    /// `ẑᵀWẑ = Σ_t (ŷ_t·ẑ)²`.
    zwz: f64,
    /// `h = n_k·ẑᵀL⁻¹v = Σ_t ŷ_t·ẑ`.
    h: f64,
}

impl FoldScorer {
    fn build(
        early: &MomentEstimate,
        late_samples: &Matrix,
        nu_values: &[f64],
        q: usize,
        repeats: usize,
        seed: u64,
        threads: usize,
    ) -> Result<Self> {
        let _span = bmf_obs::span("cv.fold_precompute");
        let d = early.dim();
        // Conditions the naive path rediscovers per candidate are checked
        // once and replayed for every scoring task.
        let global_failure = if Cholesky::new(&early.cov).is_err() {
            Some(ScoreFailure::Prior)
        } else if !late_samples.is_finite() {
            Some(ScoreFailure::Statistics)
        } else {
            None
        };
        if global_failure.is_some() {
            return Ok(FoldScorer {
                d,
                folds: Vec::new(),
                global_failure,
            });
        }
        let n = late_samples.nrows();
        let stats: Vec<Vec<FoldStats>> = (0..repeats)
            .map(|rep| {
                let order = fold_order(seed, rep, n);
                (0..q)
                    .map(|k| FoldStats::of(late_samples, order.iter().skip(k).step_by(q).copied()))
                    .collect()
            })
            .collect();
        let folds = parallel::map_product(repeats, q, threads, |rep, k| {
            FoldTerms::build(early, nu_values, &stats[rep], k)
        })?;
        Ok(FoldScorer {
            d,
            folds,
            global_failure: None,
        })
    }

    /// Scores candidate `(κ₀, ν₀)` (ν₀ at `nu_idx` of the feasible
    /// values): the mean over repeats of [`FoldScorer::score_repeat`],
    /// reduced in repeat order, plus the first failing stage.
    fn score(&self, kappa0: f64, nu0: f64, nu_idx: usize) -> (f64, Option<ScoreFailure>) {
        if let Some(stage) = self.global_failure {
            return (f64::NEG_INFINITY, Some(stage));
        }
        let repeats = self.folds.len() as f64;
        let mut score = 0.0_f64;
        let mut failure = None;
        let mut evals = 0u64;
        for folds in &self.folds {
            let (s, f) = self.score_repeat(folds, kappa0, nu0, nu_idx, &mut evals);
            score += s / repeats;
            failure = failure.or(f);
        }
        // One counter call per candidate: per fold it would cost more than
        // the O(1) fold score it counts.
        bmf_obs::counters::CV_FOLD_EVALS.add(evals);
        (score, failure)
    }

    /// Scores candidate `(κ₀, ν₀)` on one repeat's folds: mean held-out
    /// per-sample log-likelihood, plus the failing stage on −∞. Adds the
    /// folds it evaluates to `evals`.
    ///
    /// Per fold this is O(1) scalar arithmetic on the cached terms. The
    /// posterior inverse scale is `M(ν₀) + c·δδᵀ` (c = κ₀n/(κ₀+n),
    /// Eq. 25), so the matrix determinant lemma gives its log-determinant
    /// as `ln det M + ln(1+c·g)`, and Sherman–Morrison gives the held-out
    /// Mahalanobis sum from the residuals `e_t = ŷ_t − w·ẑ` (the posterior
    /// mean shifts by `w·δ`, w = κ₀/(κ₀+n), Eq. 24), whose sums
    /// `Σ‖e_t‖²` and `Σ(e_t·ẑ)²` expand into the five cached scalars. The
    /// ν₀ axis enters only through the cache index and the scalar rescale
    /// `1/(ν₀+n−d)` of Eq. 32.
    fn score_repeat(
        &self,
        folds: &[Option<FoldTerms>],
        kappa0: f64,
        nu0: f64,
        nu_idx: usize,
        evals: &mut u64,
    ) -> (f64, Option<ScoreFailure>) {
        let df = self.d as f64;
        let ln_2pi = (2.0 * std::f64::consts::PI).ln();
        let mut total = 0.0;
        let mut count = 0usize;
        for fold in folds {
            let Some(fold) = fold.as_ref() else {
                continue;
            };
            *evals += 1;
            let Some(t) = fold.nus[nu_idx].as_ref() else {
                return (f64::NEG_INFINITY, Some(ScoreFailure::Factorisation));
            };
            let nf = fold.n_train;
            let nk = fold.n_hold as f64;
            let w = kappa0 / (kappa0 + nf);
            let c = kappa0 * nf / (kappa0 + nf);
            let a = nu0 + nf - df;
            let cg = c * t.g;
            // Σ_MAP = (M + c·δδᵀ)/a, so ln det Σ_MAP = ln det M
            // + ln(1+c·g) − d·ln a and xᵀΣ_MAP⁻¹x = a·(‖e‖² − c(e·ẑ)²/(1+c·g))
            // with e = L⁻¹x.
            let norm = df * ln_2pi + t.ln_det_m + cg.ln_1p() - df * a.ln();
            let ee = t.tr_w - 2.0 * w * t.h + nk * w * w * t.g;
            let ez2 = t.zwz - 2.0 * w * t.g * t.h + nk * w * w * t.g * t.g;
            let ll = -0.5 * (nk * norm + a * (ee - c / (1.0 + cg) * ez2));
            if !ll.is_finite() {
                return (f64::NEG_INFINITY, Some(ScoreFailure::Likelihood));
            }
            total += ll;
            count += fold.n_hold;
        }
        if count == 0 {
            (f64::NEG_INFINITY, Some(ScoreFailure::EmptyFolds))
        } else {
            (total / count as f64, None)
        }
    }
}

impl FoldStats {
    /// Accumulates `(n, x̄, S)` over the given rows of `samples`.
    fn of(samples: &Matrix, rows: impl Iterator<Item = usize> + Clone) -> FoldStats {
        let d = samples.ncols();
        let mut n = 0usize;
        let mut mean = Vector::zeros(d);
        for i in rows.clone() {
            n += 1;
            for (m, &x) in mean.iter_mut().zip(samples.row(i)) {
                *m += x;
            }
        }
        mean = mean / n as f64;
        let mut scatter = Matrix::zeros(d, d);
        for i in rows {
            add_outer(&mut scatter, 1.0, samples.row(i), mean.as_slice());
        }
        FoldStats { n, mean, scatter }
    }
}

/// `s += α·(x − c)(x − c)ᵀ`.
fn add_outer(s: &mut Matrix, alpha: f64, x: &[f64], c: &[f64]) {
    let d = c.len();
    for a in 0..d {
        let da = alpha * (x[a] - c[a]);
        for b in 0..d {
            s[(a, b)] += da * (x[b] - c[b]);
        }
    }
}

impl FoldTerms {
    /// Pools every fold but `k` of one repeat into the training
    /// statistics and reduces the split, per feasible ν₀, to its
    /// [`NuTerms`]. `None` for a degenerate split (an empty side).
    fn build(
        early: &MomentEstimate,
        nu_values: &[f64],
        stats: &[FoldStats],
        k: usize,
    ) -> Option<FoldTerms> {
        let held = &stats[k];
        let training: Vec<&FoldStats> = stats
            .iter()
            .enumerate()
            .filter(|&(f, _)| f != k)
            .map(|(_, s)| s)
            .collect();
        let n_train: usize = training.iter().map(|s| s.n).sum();
        if held.n == 0 || n_train == 0 {
            return None;
        }
        let d = held.mean.len();
        let df = d as f64;
        let nt = n_train as f64;
        // Parallel-axis pooling: X̄ = Σ n_f x̄_f / n and
        // S = Σ [S_f + n_f (x̄_f − X̄)(x̄_f − X̄)ᵀ].
        let mut xbar = Vector::zeros(d);
        for s in &training {
            xbar.axpy(s.n as f64, &s.mean).ok()?;
        }
        xbar = xbar / nt;
        let mut scatter = Matrix::zeros(d, d);
        for s in &training {
            scatter += &s.scatter;
            add_outer(&mut scatter, s.n as f64, s.mean.as_slice(), xbar.as_slice());
        }
        let delta = &early.mean - &xbar;
        let v = &held.mean - &xbar;
        let nk = held.n as f64;
        // Held-out scatter about the training mean: C = S_k + n_k·vvᵀ.
        let mut c = held.scatter.clone();
        add_outer(&mut c, nk, held.mean.as_slice(), xbar.as_slice());

        // Scratch reused across ν₀: no allocation per factor or solve.
        let mut m = Matrix::zeros(d, d);
        let mut chol = Cholesky::default();
        let mut x = Matrix::zeros(d, d);
        let mut col = Vector::zeros(d);
        let mut z = Vector::zeros(d);
        let mut r = Vector::zeros(d);
        let nus = nu_values
            .iter()
            .map(|&nu0| {
                for ((mi, &ei), &si) in m
                    .as_mut_slice()
                    .iter_mut()
                    .zip(early.cov.as_slice())
                    .zip(scatter.as_slice())
                {
                    *mi = ei * (nu0 - df) + si;
                }
                chol.refactor(&m).ok()?;
                z.as_mut_slice().copy_from_slice(delta.as_slice());
                chol.solve_lower_in_place(z.as_mut_slice()).ok()?;
                r.as_mut_slice().copy_from_slice(v.as_slice());
                chol.solve_lower_in_place(r.as_mut_slice()).ok()?;
                // Row j of X = C L⁻ᵀ is L⁻¹ applied to row j of the
                // symmetric C; column i of W = L⁻¹X is then L⁻¹ applied to
                // column i of X.
                x.as_mut_slice().copy_from_slice(c.as_slice());
                for j in 0..d {
                    chol.solve_lower_in_place(x.row_mut(j)).ok()?;
                }
                let mut tr_w = 0.0;
                let mut zwz = 0.0;
                for i in 0..d {
                    for (t, slot) in col.as_mut_slice().iter_mut().enumerate() {
                        *slot = x[(t, i)];
                    }
                    chol.solve_lower_in_place(col.as_mut_slice()).ok()?;
                    tr_w += col[i];
                    zwz += z[i] * z.dot(&col).ok()?;
                }
                Some(NuTerms {
                    ln_det_m: chol.ln_det(),
                    g: z.dot(&z).ok()?,
                    tr_w,
                    zwz,
                    h: nk * z.dot(&r).ok()?,
                })
            })
            .collect();
        Some(FoldTerms {
            n_hold: held.n,
            n_train: nt,
            nus,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::{Matrix, Vector};
    use bmf_stats::MultivariateNormal;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn truth() -> MultivariateNormal {
        MultivariateNormal::new(
            Vector::from_slice(&[0.0, 0.0]),
            Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 1.0]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn log_grid_spans_range() {
        let g = log_grid(1.0, 1000.0, 12);
        assert_eq!(g.len(), 12);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[11] - 1000.0).abs() < 1e-9);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn log_grid_single_point_is_lo_not_nan() {
        // Regression: `points == 1` used to interpolate with a 0/0 step
        // and produce a NaN candidate, which the CV constructor rejects.
        assert_eq!(log_grid(5.0, 1000.0, 1), vec![5.0]);
        let cv = CrossValidation::new(vec![3.0], vec![7.0], 2).unwrap();
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 8);
        let sel = cv.select(&early, &late, &mut r).unwrap();
        assert_eq!((sel.kappa0, sel.nu0), (3.0, 7.0));
    }

    #[test]
    fn construction_validates() {
        assert!(CrossValidation::new(vec![], vec![1.0], 4).is_err());
        assert!(CrossValidation::new(vec![1.0], vec![], 4).is_err());
        assert!(CrossValidation::new(vec![1.0], vec![5.0], 1).is_err());
        assert!(CrossValidation::new(vec![0.0], vec![5.0], 4).is_err());
        assert!(CrossValidation::new(vec![1.0], vec![-5.0], 4).is_err());
        assert!(CrossValidation::new(vec![1.0], vec![5.0], 4).is_ok());
    }

    #[test]
    fn good_prior_selects_high_confidence() {
        // Early moments == truth: averaged over repetitions, CV should
        // trust the prior (large ν₀) — a single run sits on a flat score
        // landscape, so we test the average and the outcome (BMF error
        // not worse than MLE).
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let cv = CrossValidation::default();
        let reps = 10;
        let mut nu_sum = 0.0;
        let mut bmf_err = 0.0;
        let mut mle_err = 0.0;
        for _ in 0..reps {
            let late = truth().sample_matrix(&mut r, 16);
            let sel = cv.select(&early, &late, &mut r).unwrap();
            assert!(sel.score.is_finite());
            assert!(!sel.grid.is_empty());
            nu_sum += sel.nu0;
            let prior =
                crate::prior::NormalWishartPrior::from_early_moments(&early, sel.kappa0, sel.nu0)
                    .unwrap();
            let est = crate::map::BmfEstimator::new(prior)
                .unwrap()
                .estimate(&late)
                .unwrap();
            bmf_err += est.map.cov.max_abs_diff(truth().cov()).unwrap();
            let mle = crate::mle::MleEstimator::new().estimate(&late).unwrap();
            mle_err += mle.cov.max_abs_diff(truth().cov()).unwrap();
        }
        let nu_mean = nu_sum / reps as f64;
        assert!(
            nu_mean > 20.0,
            "expected large average nu0 for a perfect covariance prior, got {nu_mean}"
        );
        assert!(
            bmf_err < mle_err,
            "with a perfect prior BMF ({bmf_err}) must beat MLE ({mle_err})"
        );
    }

    #[test]
    fn wrong_mean_prior_selects_small_kappa() {
        // Early mean badly wrong, covariance right: CV should distrust the
        // mean (small κ₀) but keep the covariance confidence.
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::from_slice(&[3.0, -3.0]), // 3σ wrong
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 32);
        let sel = CrossValidation::default()
            .select(&early, &late, &mut r)
            .unwrap();
        assert!(
            sel.kappa0 < 20.0,
            "expected small kappa0 for a wrong mean prior, got {}",
            sel.kappa0
        );
        assert!(
            sel.nu0 > 20.0,
            "covariance prior is good, expected large nu0, got {}",
            sel.nu0
        );
    }

    #[test]
    fn wrong_cov_prior_selects_small_nu() {
        // Early covariance wildly wrong (inflated 25×), mean right.
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov() * 25.0,
        };
        let late = truth().sample_matrix(&mut r, 64);
        let sel = CrossValidation::default()
            .select(&early, &late, &mut r)
            .unwrap();
        assert!(
            sel.nu0 < 50.0,
            "expected small nu0 for a wrong covariance prior, got {}",
            sel.nu0
        );
    }

    #[test]
    fn infeasible_nu_candidates_are_skipped() {
        // Grid contains only nu0 <= d → no feasible candidate.
        let cv = CrossValidation::new(vec![1.0], vec![1.0, 2.0], 2).unwrap();
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let late = truth().sample_matrix(&mut r, 8);
        assert!(cv.select(&early, &late, &mut r).is_err());
        // Adding one feasible candidate fixes it.
        let cv = CrossValidation::new(vec![1.0], vec![2.0, 5.0], 2).unwrap();
        let sel = cv.select(&early, &late, &mut r).unwrap();
        assert_eq!(sel.nu0, 5.0);
    }

    #[test]
    fn rejects_insufficient_samples() {
        let cv = CrossValidation::default();
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let one = Matrix::from_rows(&[&[0.1, 0.2]]).unwrap();
        assert!(cv.select(&early, &one, &mut r).is_err());
        let wrong_width = Matrix::zeros(8, 3);
        assert!(cv.select(&early, &wrong_width, &mut r).is_err());
    }

    #[test]
    fn fold_count_adapts_to_tiny_n() {
        // n = 3 < Q = 4: the effective fold count shrinks, still works.
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 3);
        let sel = CrossValidation::default()
            .select(&early, &late, &mut r)
            .unwrap();
        assert!(sel.score.is_finite());
    }

    #[test]
    fn select_seeded_is_bit_identical_across_thread_counts() {
        let cv =
            CrossValidation::with_repeats(vec![1.0, 10.0, 100.0], vec![5.0, 50.0, 500.0], 3, 3)
                .unwrap();
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 16);
        let reference = cv.select_seeded(&early, &late, 42, 1).unwrap();
        for threads in [2, 3, 7, 16] {
            let par = cv.select_seeded(&early, &late, 42, threads).unwrap();
            assert_eq!(par, reference, "threads = {threads}");
        }
    }

    #[test]
    fn duplicate_grid_values_are_deduplicated() {
        let cv =
            CrossValidation::new(vec![1.0, 10.0, 1.0, 10.0, 1.0], vec![5.0, 5.0, 50.0], 2).unwrap();
        assert_eq!(cv.kappa_grid(), &[1.0, 10.0]);
        assert_eq!(cv.nu_grid(), &[5.0, 50.0]);
        assert_eq!(cv.feasible_candidate_count(2), 4);
        assert_eq!(cv.feasible_candidate_count(49), 2);
        assert_eq!(cv.feasible_candidate_count(50), 0);
        // Selection still works and scores each unique candidate once.
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 10);
        let sel = cv.select(&early, &late, &mut r).unwrap();
        assert_eq!(sel.grid.len(), 4);
    }

    #[test]
    fn infeasible_grid_error_names_the_grid() {
        let cv = CrossValidation::new(vec![1.0], vec![1.0, 2.0], 2).unwrap();
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let late = truth().sample_matrix(&mut r, 8);
        let err = cv.select(&early, &late, &mut r).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("no feasible (kappa0, nu0) candidate"),
            "infeasible-grid failure must blame the grid: {msg}"
        );
        assert!(!msg.contains("failed to score"), "{msg}");
    }

    #[test]
    fn all_failed_error_names_the_failing_stage_not_the_grid() {
        // The grid IS feasible (nu0 = 5 > d = 2); a NaN late sample makes
        // every candidate fail at the sufficient-statistics stage. The old
        // code conflated this with grid infeasibility.
        let cv = CrossValidation::new(vec![1.0, 10.0], vec![5.0], 2).unwrap();
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let mut late = truth().sample_matrix(&mut r, 8);
        late[(3, 1)] = f64::NAN;
        for naive in [false, true] {
            let err = cv
                .clone()
                .with_naive_scoring(naive)
                .select_seeded(&early, &late, 11, 1)
                .unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("failed to score"),
                "naive = {naive}: all-failed diagnosis must name scoring, got: {msg}"
            );
            assert!(
                msg.contains("sufficient statistics"),
                "naive = {naive}: failing stage must be named, got: {msg}"
            );
            assert!(
                !msg.contains("no feasible"),
                "naive = {naive}: must not blame a feasible grid, got: {msg}"
            );
        }
    }

    #[test]
    fn fast_scoring_matches_naive_oracle() {
        let cv = CrossValidation::with_repeats(vec![1.0, 4.67, 120.0], vec![2.5, 7.0, 310.0], 3, 2)
            .unwrap();
        assert!(!cv.naive_scoring());
        let naive_cv = cv.clone().with_naive_scoring(true);
        assert!(naive_cv.naive_scoring());
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::from_slice(&[0.4, -0.2]),
            cov: truth().cov() * 1.7,
        };
        let late = truth().sample_matrix(&mut r, 12);
        let fast = cv.select_seeded(&early, &late, 7, 1).unwrap();
        let naive = naive_cv.select_seeded(&early, &late, 7, 1).unwrap();
        assert_eq!(fast.grid.len(), naive.grid.len());
        for (f, n) in fast.grid.iter().zip(naive.grid.iter()) {
            assert_eq!((f.kappa0, f.nu0), (n.kappa0, n.nu0));
            let tol = 1e-10 * n.score.abs().max(1.0);
            assert!(
                (f.score - n.score).abs() <= tol,
                "({}, {}): fast {} vs naive {}",
                f.kappa0,
                f.nu0,
                f.score,
                n.score
            );
        }
        assert_eq!((fast.kappa0, fast.nu0), (naive.kappa0, naive.nu0));
    }

    #[test]
    fn grid_scores_are_reported_for_all_feasible_points() {
        let cv = CrossValidation::new(vec![1.0, 10.0], vec![5.0, 50.0], 2).unwrap();
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 10);
        let sel = cv.select(&early, &late, &mut r).unwrap();
        assert_eq!(sel.grid.len(), 4);
        assert!(sel.grid.iter().all(|p| p.score.is_finite()));
        // Winner really is the argmax of the reported grid.
        let max = sel
            .grid
            .iter()
            .cloned()
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        assert_eq!(max.score, sel.score);
    }
}
