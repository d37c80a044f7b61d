//! Error types of the `Instance`/`Solver` API.
//!
//! Two layers, mirroring the two places things can go wrong:
//!
//! * [`InstanceError`] — the input data is malformed (wrong vector
//!   lengths, non-finite or negative entries). Raised once, at
//!   [`Instance`](crate::api::Instance) construction.
//! * [`SolveError`] — the solver configuration cannot run (no classes, an
//!   invalid exponent `p`), a solve or serve failed (a retryable
//!   transient, a panic caught at an isolation boundary, a coloring a
//!   serving gate refused, a warm start that does not fit the solver),
//!   or it wraps an [`InstanceError`] where one result type carries both
//!   (raw batch admission, delta application, the baselines' raw-vector
//!   entry points).
//!
//! Every `Display` lives in this module, generated by one hand-rolled
//! `thiserror`-style macro: each variant is declared next to its message,
//! and the messages carry the offending values (lengths, indices, the
//! exponent, the failpoint site, the dimension that disagreed).

/// Hand-rolled `thiserror`-style `Display` + `Error` impl: variant
/// patterns on the left, format messages (with inline captures) on the
/// right.
macro_rules! impl_error_display {
    ($ty:ident { $($pat:pat => $msg:literal),+ $(,)? }) => {
        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                #[allow(unused_variables)]
                match self {
                    $($pat => write!(f, $msg)),+
                }
            }
        }
        impl std::error::Error for $ty {}
    };
}

/// Malformed instance data, reported by `Instance` construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// Weight vector length must equal the vertex count.
    WeightLength {
        /// provided length
        got: usize,
        /// expected length (`n`)
        expected: usize,
    },
    /// Cost vector length must equal the edge count.
    CostLength {
        /// provided length
        got: usize,
        /// expected length (`m`)
        expected: usize,
    },
    /// An extra measure's length must equal the vertex count.
    MeasureLength {
        /// which extra measure (0-based, in insertion order)
        index: usize,
        /// provided length
        got: usize,
        /// expected length (`n`)
        expected: usize,
    },
    /// All measures must be finite and non-negative.
    NotFinite {
        /// which input vector offended ("weights", "costs", …)
        what: &'static str,
    },
    /// A delta mutation referenced a vertex id outside the instance
    /// (including any vertices the same delta appends).
    VertexOutOfRange {
        /// the offending vertex id
        got: u32,
        /// the vertex count the delta resolves against
        n: usize,
    },
    /// A delta mutation referenced an edge id outside the instance.
    EdgeOutOfRange {
        /// the offending edge id
        got: u32,
        /// the instance's edge count
        m: usize,
    },
    /// A delta tried to add a self-loop (the CSR graph forbids them).
    SelfLoop {
        /// the looping vertex
        v: u32,
    },
    /// A delta tried to add an edge that already exists (or added the
    /// same edge twice) — parallel edges are not representable.
    DuplicateEdge {
        /// smaller endpoint
        u: u32,
        /// larger endpoint
        v: u32,
    },
}

impl_error_display!(InstanceError {
    InstanceError::WeightLength { got, expected } =>
        "weight vector has length {got}, expected {expected}",
    InstanceError::CostLength { got, expected } =>
        "cost vector has length {got}, expected {expected}",
    InstanceError::MeasureLength { index, got, expected } =>
        "extra measure #{index} has length {got}, expected {expected}",
    InstanceError::NotFinite { what } =>
        "{what} must be finite and non-negative",
    InstanceError::VertexOutOfRange { got, n } =>
        "delta references vertex {got}, instance has {n} vertices",
    InstanceError::EdgeOutOfRange { got, m } =>
        "delta references edge {got}, instance has {m} edges",
    InstanceError::SelfLoop { v } =>
        "delta adds a self-loop at vertex {v}",
    InstanceError::DuplicateEdge { u, v } =>
        "delta adds edge ({u}, {v}) which already exists",
});

/// Solver configuration or input failure.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// `k` must be at least 1.
    ZeroColors,
    /// The splittability exponent `p` must be finite and at least 1.
    InvalidExponent {
        /// the offending value
        p: f64,
    },
    /// The instance data is malformed, reported where one result type
    /// carries both layers: raw request admission (`mmb-service`'s
    /// `Service::serve`), delta application, and the baselines'
    /// raw-vector entry points. The `Instance` constructor reports
    /// [`InstanceError`] directly.
    Instance(InstanceError),
    /// A retryable failure, injected by an armed
    /// [`failpoint`](crate::failpoint) schedule at a fallible site.
    Transient {
        /// The failpoint site that raised it.
        site: &'static str,
    },
    /// A panic caught at an isolation boundary (`mmb-service`'s request
    /// boundary) and converted into a typed error instead of crossing the
    /// public API. The resilient ladder records a panicking rung as
    /// [`RungOutcome::Panicked`](crate::resilient::RungOutcome::Panicked)
    /// and falls through to the next rung.
    Panicked {
        /// Which boundary caught it (e.g. `"service"`).
        context: &'static str,
        /// The rendered panic payload.
        message: String,
    },
    /// A serving gate (`mmb-service`'s) rejected a coloring because it
    /// violates strict balance (eq. (1)) — the output exists but must not
    /// be served.
    NotStrict {
        /// The strict-balance defect (positive ⟺ eq. (1) violated).
        defect: f64,
    },
    /// A warm-start input does not fit this solver: `resolve_delta` was
    /// given a previous coloring whose class count or vertex count does
    /// not match the solver's instance.
    WarmStartMismatch {
        /// which dimension disagreed (`"k"`, `"n"`).
        what: &'static str,
    },
}

impl_error_display!(SolveError {
    SolveError::ZeroColors => "k must be at least 1",
    SolveError::InvalidExponent { p } =>
        "splittability exponent p must be finite and at least 1, got {p}",
    SolveError::Instance(e) => "invalid instance: {e}",
    SolveError::Transient { site } =>
        "transient failure at `{site}`; safe to retry",
    SolveError::Panicked { context, message } =>
        "panic caught at the `{context}` isolation boundary: {message}",
    SolveError::NotStrict { defect } =>
        "output violates strict balance (eq. (1)) by {defect}; refusing to serve it",
    SolveError::WarmStartMismatch { what } =>
        "warm-start coloring does not match the solver's instance (mismatched {what})",
});

impl From<InstanceError> for SolveError {
    fn from(e: InstanceError) -> Self {
        SolveError::Instance(e)
    }
}

/// Check a weight vector: length `expected`, entries finite and ≥ 0.
///
/// The single source of truth for weight validation — `Instance`
/// construction and every `mmb-baselines` entry point call this, so the
/// rules cannot drift apart.
pub fn validate_weights(expected: usize, weights: &[f64]) -> Result<(), InstanceError> {
    if weights.len() != expected {
        return Err(InstanceError::WeightLength {
            got: weights.len(),
            expected,
        });
    }
    if weights.iter().any(|x| !x.is_finite() || *x < 0.0) {
        return Err(InstanceError::NotFinite { what: "weights" });
    }
    Ok(())
}

/// Check a cost vector: length `expected`, entries finite and ≥ 0.
///
/// Counterpart of [`validate_weights`] for edge costs.
pub fn validate_costs(expected: usize, costs: &[f64]) -> Result<(), InstanceError> {
    if costs.len() != expected {
        return Err(InstanceError::CostLength {
            got: costs.len(),
            expected,
        });
    }
    if costs.iter().any(|x| !x.is_finite() || *x < 0.0) {
        return Err(InstanceError::NotFinite { what: "costs" });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = InstanceError::WeightLength {
            got: 3,
            expected: 9,
        };
        assert_eq!(e.to_string(), "weight vector has length 3, expected 9");
        let e = InstanceError::MeasureLength {
            index: 1,
            got: 2,
            expected: 5,
        };
        assert_eq!(e.to_string(), "extra measure #1 has length 2, expected 5");
        let e = SolveError::Instance(InstanceError::NotFinite { what: "costs" });
        assert_eq!(
            e.to_string(),
            "invalid instance: costs must be finite and non-negative"
        );
        assert_eq!(SolveError::ZeroColors.to_string(), "k must be at least 1");
    }

    #[test]
    fn instance_error_converts() {
        let e: SolveError = InstanceError::NotFinite { what: "weights" }.into();
        assert!(matches!(e, SolveError::Instance(_)));
    }
}
