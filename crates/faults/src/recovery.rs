//! Recovery policies: how a faulted cluster puts itself back together.
//!
//! Recovery has three legs, mirroring what real PS-architecture training
//! stacks do (cf. "Elastic Model Aggregation with Parameter Service"):
//!
//! 1. **Checkpointing** — the PS fleet persists parameters every
//!    `checkpoint_interval_updates` global updates. A PS crash rolls global
//!    progress back to the last checkpoint boundary; the rolled-back
//!    updates are *lost* and must be *replayed*.
//! 2. **Worker restarts** — a crashed worker (no environment-supplied
//!    replacement) is relaunched after an exponential backoff
//!    `restart_backoff_secs · backoff_multiplier^attempt`, jittered by a
//!    deterministic [`cynthia_sim::rng::Jitter`] stream, while the
//!    `retry_budget` lasts; after that the slot is retired (fleet shrink).
//!    The last surviving worker is never retired — it restarts past the
//!    budget so the job always terminates.
//! 3. **PS failover** — on a permanent PS crash, the dead node's parameter
//!    chunks (and hence its share of parameter bandwidth) are re-sharded
//!    round-robin across the surviving PS nodes; workers restore from the
//!    new owners after `ps_failover_secs`. When failover is disabled or no
//!    survivor exists, the node instead reboots from its durable
//!    checkpoint after the same latency.

use serde::{Deserialize, Serialize};

/// Knobs of the recovery machinery. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Checkpoint cadence in global updates; a PS crash rolls back to the
    /// last multiple of this. `0` = checkpoint only at start (a crash
    /// rolls back to update 0). `1` = continuous checkpointing (only
    /// in-flight work is lost).
    pub checkpoint_interval_updates: u64,
    /// Restart attempts granted per worker slot before it is retired.
    pub retry_budget: u32,
    /// Backoff before the first restart attempt, seconds.
    pub restart_backoff_secs: f64,
    /// Backoff growth per successive attempt on the same slot (≥ 1).
    pub backoff_multiplier: f64,
    /// Coefficient of variation of the multiplicative jitter applied to
    /// each backoff (`0` = deterministic backoff).
    pub backoff_jitter_cv: f64,
    /// Whether a permanently-crashed PS node's chunks fail over to the
    /// surviving servers (re-sharding parameter bandwidth).
    pub ps_failover: bool,
    /// Latency of a PS failover or checkpoint reboot, seconds (leader
    /// election + shard handoff, or node reboot + checkpoint load).
    pub ps_failover_secs: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_interval_updates: 100,
            retry_budget: 3,
            restart_backoff_secs: 30.0,
            backoff_multiplier: 2.0,
            backoff_jitter_cv: 0.0,
            ps_failover: true,
            ps_failover_secs: 30.0,
        }
    }
}

impl RecoveryPolicy {
    /// The no-recovery policy plain runs and spot revocations run under:
    /// zero retry budget (an unreplaced crash shrinks the fleet
    /// immediately) and no PS failover. Checkpoint interval 1 keeps a PS
    /// crash from losing committed progress.
    pub fn none() -> Self {
        RecoveryPolicy {
            checkpoint_interval_updates: 1,
            retry_budget: 0,
            restart_backoff_secs: 0.0,
            backoff_multiplier: 1.0,
            backoff_jitter_cv: 0.0,
            ps_failover: false,
            ps_failover_secs: 0.0,
        }
    }

    /// An aggressive policy for chaos drills: tight checkpoints, generous
    /// retries, fast failover.
    pub fn aggressive() -> Self {
        RecoveryPolicy {
            checkpoint_interval_updates: 20,
            retry_budget: 8,
            restart_backoff_secs: 10.0,
            backoff_multiplier: 1.5,
            backoff_jitter_cv: 0.0,
            ps_failover: true,
            ps_failover_secs: 15.0,
        }
    }

    /// Backoff before restart attempt `attempt` (0-based) on a worker
    /// slot, before jitter.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        self.restart_backoff_secs * self.backoff_multiplier.powi(attempt as i32)
    }

    /// The checkpoint boundary at or below `progress` — where a PS crash
    /// at that progress rolls back to.
    pub fn checkpoint_floor(&self, progress: u64) -> u64 {
        if self.checkpoint_interval_updates == 0 {
            0
        } else {
            progress - progress % self.checkpoint_interval_updates
        }
    }

    /// Sanity-checks the numeric fields; call once before simulation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.restart_backoff_secs.is_finite() || self.restart_backoff_secs < 0.0 {
            return Err("restart_backoff_secs must be finite and non-negative".into());
        }
        if !self.backoff_multiplier.is_finite() || self.backoff_multiplier < 1.0 {
            return Err("backoff_multiplier must be finite and at least 1".into());
        }
        if !self.backoff_jitter_cv.is_finite() || self.backoff_jitter_cv < 0.0 {
            return Err("backoff_jitter_cv must be finite and non-negative".into());
        }
        if !self.ps_failover_secs.is_finite() || self.ps_failover_secs < 0.0 {
            return Err("ps_failover_secs must be finite and non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RecoveryPolicy {
            restart_backoff_secs: 10.0,
            backoff_multiplier: 2.0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff_secs(0), 10.0);
        assert_eq!(p.backoff_secs(1), 20.0);
        assert_eq!(p.backoff_secs(3), 80.0);
    }

    #[test]
    fn checkpoint_floor_rounds_down() {
        let p = RecoveryPolicy {
            checkpoint_interval_updates: 50,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.checkpoint_floor(0), 0);
        assert_eq!(p.checkpoint_floor(49), 0);
        assert_eq!(p.checkpoint_floor(50), 50);
        assert_eq!(p.checkpoint_floor(149), 100);
        let never = RecoveryPolicy {
            checkpoint_interval_updates: 0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(never.checkpoint_floor(149), 0);
        let continuous = RecoveryPolicy {
            checkpoint_interval_updates: 1,
            ..RecoveryPolicy::default()
        };
        assert_eq!(continuous.checkpoint_floor(149), 149);
    }

    #[test]
    fn presets_validate() {
        assert!(RecoveryPolicy::default().validate().is_ok());
        assert!(RecoveryPolicy::none().validate().is_ok());
        assert!(RecoveryPolicy::aggressive().validate().is_ok());
    }

    #[test]
    fn bad_fields_fail_validation() {
        let p = RecoveryPolicy {
            backoff_multiplier: 0.5,
            ..RecoveryPolicy::default()
        };
        assert!(p.validate().is_err());
        let p = RecoveryPolicy {
            restart_backoff_secs: f64::NAN,
            ..RecoveryPolicy::default()
        };
        assert!(p.validate().is_err());
    }
}
