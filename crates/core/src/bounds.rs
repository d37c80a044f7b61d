//! Right-hand sides of the paper's bounds, with unit constants.
//!
//! The theorems are asymptotic (`O_p(·)`); these helpers compute their
//! right-hand sides with constant 1 so experiments can report
//! measured / bound ratios (which must stay bounded across sweeps for a
//! theorem to count as reproduced).

use mmb_graph::measure::dual_exponent;

/// Theorem 4: `σ_p · (k^{−1/p}·‖c‖_p + Δ_c)`.
pub fn theorem4(sigma_p: f64, p: f64, k: usize, c_norm_p: f64, delta_c: f64) -> f64 {
    sigma_p * ((k as f64).powf(-1.0 / p) * c_norm_p + delta_c)
}

/// Theorem 5 (well-behaved instances): `‖c‖_p / k^{1/p} + ‖c‖_∞`.
pub fn theorem5(p: f64, k: usize, c_norm_p: f64, c_max: f64) -> f64 {
    c_norm_p / (k as f64).powf(1.0 / p) + c_max
}

/// The quantity `B = q·k^{−1/p}·σ_p·‖c‖_p` of Lemma 9.
pub fn lemma9_b(sigma_p: f64, p: f64, k: usize, c_norm_p: f64) -> f64 {
    dual_exponent(p) * (k as f64).powf(-1.0 / p) * sigma_p * c_norm_p
}

/// Strict balance slack of Definition 1: `(1 − 1/k)·‖w‖_∞`.
pub fn strict_slack(k: usize, w_max: f64) -> f64 {
    (1.0 - 1.0 / k as f64) * w_max
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn theorem4_shape() {
        // Doubling k with p = 2 shrinks the norm term by √2.
        let b1 = theorem4(1.0, 2.0, 2, 10.0, 0.0);
        let b2 = theorem4(1.0, 2.0, 4, 10.0, 0.0);
        assert!(close(b1 / b2, 2f64.sqrt()));
        // Δ_c enters additively.
        assert!(close(
            theorem4(2.0, 2.0, 4, 10.0, 3.0),
            2.0 * (10.0 / 2.0 + 3.0)
        ));
    }

    #[test]
    fn strict_slack_values() {
        assert!(close(strict_slack(2, 4.0), 2.0));
        assert!(close(strict_slack(4, 4.0), 3.0));
        assert_eq!(strict_slack(1, 4.0), 0.0);
    }
}
