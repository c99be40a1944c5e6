//! Checkpoint-interval and placement advice.
//!
//! Two pieces of practical guidance fall out of the paper:
//!
//! * **How often to checkpoint**: the classic Young interval
//!   `T_opt = sqrt(2 · δ · MTBF)` balances checkpoint overhead against
//!   expected recomputation, where `δ` is the effective delay of one
//!   checkpoint — which group-based checkpointing reduces, so it also
//!   shortens the optimal interval and the expected loss.
//! * **Where to place it** (§6.1, Figure 4): "checkpoint request should be
//!   placed long before synchronization to achieve better overlap" — given
//!   a barrier period, prefer issuance right after a synchronization line.
//!
//! The advisor works entirely from quantities this workspace measures.

use gbcr_des::Time;

/// Inputs to the interval advisor.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorInputs {
    /// Effective Checkpoint Delay of one checkpoint (measured; seconds).
    pub effective_delay: f64,
    /// Cluster mean time between failures (seconds).
    pub mtbf: f64,
    /// Expected restart cost: image read-back plus lost work is folded in
    /// by Young's first-order model; this adds the fixed restart-storm
    /// read time (seconds).
    pub restart_read: f64,
}

/// The advisor's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advice {
    /// Young's optimal checkpoint interval (seconds).
    pub interval: f64,
    /// Expected overhead fraction of total runtime at that interval
    /// (checkpointing + expected recomputation + restart), first-order.
    pub overhead_fraction: f64,
}

/// Young's formula with a restart-cost refinement.
pub fn young_interval(inputs: AdvisorInputs) -> Advice {
    assert!(inputs.effective_delay > 0.0 && inputs.mtbf > 0.0);
    let interval = (2.0 * inputs.effective_delay * inputs.mtbf).sqrt();
    // First-order expected overhead per unit time:
    //   δ/T            (checkpointing)
    // + T/(2·MTBF)     (expected recomputation after a failure)
    // + R/MTBF         (restart reads per failure)
    let overhead_fraction = inputs.effective_delay / interval
        + interval / (2.0 * inputs.mtbf)
        + inputs.restart_read / inputs.mtbf;
    Advice { interval, overhead_fraction }
}

/// Daly's higher-order refinement of Young's interval (Daly 2006): for
/// `δ < 2·MTBF`,
/// `T_opt = sqrt(2δM)·[1 + (1/3)·sqrt(δ/2M) + (1/9)·(δ/2M)] − δ`,
/// else `T_opt = MTBF`. Slightly shorter than Young's for short-MTBF
/// regimes (it accounts for failures landing *during* checkpoints), and it
/// degrades gracefully as the failure rate approaches the checkpoint cost
/// — the regime the fault sweep explores.
pub fn daly_interval(inputs: AdvisorInputs) -> Advice {
    assert!(inputs.effective_delay > 0.0 && inputs.mtbf > 0.0);
    let d = inputs.effective_delay;
    let m = inputs.mtbf;
    let interval = if d < 2.0 * m {
        let x = (d / (2.0 * m)).sqrt();
        (2.0 * d * m).sqrt() * (1.0 + x / 3.0 + x * x / 9.0) - d
    } else {
        m
    };
    let overhead_fraction = d / interval + interval / (2.0 * m) + inputs.restart_read / m;
    Advice { interval, overhead_fraction }
}

/// §6.1 placement advice: given a synchronization period, the best
/// issuance offset within a period is right after the synchronization line
/// (maximal distance for the early groups to overlap before everyone must
/// meet at the barrier), and the worst is immediately before the next line
/// (no room to overlap: the delay approaches the Total Checkpoint Time —
/// Figure 4's shape). Returns `(best_offset, worst_offset)` within
/// `[0, period)`. `total_ckpt_time` bounds how early "immediately before"
/// needs to be to already be maximal.
pub fn placement_window(period: Time, total_ckpt_time: Time) -> (Time, Time) {
    assert!(period > 0);
    // Anywhere in the last ~tenth of the checkpoint's own span before the
    // line is effectively worst-case; report the latest representative
    // offset strictly inside the period.
    let margin = (total_ckpt_time / 10).clamp(1, period / 10 + 1);
    (0, period - margin.min(period))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbcr_des::time;

    #[test]
    fn young_matches_hand_computation() {
        // δ = 50 s, MTBF = 24 h: T = sqrt(2·50·86400) = 2939.4 s.
        let a = young_interval(AdvisorInputs {
            effective_delay: 50.0,
            mtbf: 86_400.0,
            restart_read: 120.0,
        });
        assert!((a.interval - 2939.4).abs() < 0.1, "got {}", a.interval);
        // overhead = 50/2939.4 + 2939.4/172800 + 120/86400 ≈ 3.5 %
        assert!((a.overhead_fraction - 0.0354).abs() < 0.001, "got {}", a.overhead_fraction);
    }

    #[test]
    fn smaller_effective_delay_shortens_interval_and_overhead() {
        // Group-based checkpointing cutting δ from 120 s to 60 s must both
        // shorten the optimal interval and cut the overhead fraction.
        let all = young_interval(AdvisorInputs {
            effective_delay: 120.0,
            mtbf: 43_200.0,
            restart_read: 100.0,
        });
        let grouped = young_interval(AdvisorInputs {
            effective_delay: 60.0,
            mtbf: 43_200.0,
            restart_read: 100.0,
        });
        assert!(grouped.interval < all.interval);
        assert!(grouped.overhead_fraction < all.overhead_fraction);
    }

    #[test]
    fn daly_tracks_young_in_the_long_mtbf_limit() {
        let inputs = AdvisorInputs { effective_delay: 50.0, mtbf: 86_400.0, restart_read: 120.0 };
        let y = young_interval(inputs);
        let d = daly_interval(inputs);
        // For δ ≪ MTBF the two agree to within a few percent, with Daly's
        // correction always shaving the interval.
        assert!(d.interval < y.interval);
        assert!(
            (d.interval - y.interval).abs() / y.interval < 0.05,
            "daly {} vs young {}",
            d.interval,
            y.interval
        );
    }

    #[test]
    fn daly_saturates_at_mtbf_for_failure_dominated_regimes() {
        let a = daly_interval(AdvisorInputs {
            effective_delay: 100.0,
            mtbf: 40.0, // δ ≥ 2·MTBF: checkpoint as often as failures land
            restart_read: 0.0,
        });
        assert_eq!(a.interval, 40.0);
    }

    #[test]
    fn placement_window_brackets_the_period() {
        let (best, worst) = placement_window(time::secs(60), time::secs(41));
        assert_eq!(best, 0);
        assert!(worst > time::secs(50) && worst < time::secs(60), "{worst}");
        // Degenerate: checkpoint longer than the period still yields a
        // strictly-inside worst offset.
        let (best, worst) = placement_window(time::secs(10), time::secs(41));
        assert_eq!(best, 0);
        assert!(worst < time::secs(10));
    }
}
