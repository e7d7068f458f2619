//! Soft-SKU lifecycle: composition, staged rollout, drift-triggered re-tune.
//!
//! The paper's payoff is not a per-knob A/B win but the *composed* soft SKU
//! deployed per service across the fleet (Secs. 5.3/6) and kept valid as
//! code pushes shift behaviour (Sec. 7). This crate closes that loop on top
//! of the tuner, the hazard-hardened A/B pipeline, and the deterministic
//! parallel scheduler:
//!
//! * [`compose::SkuComposer`] — joint validation of composed per-knob
//!   winners on parallel environment replicas, with interaction detection
//!   that demotes an underperforming composition to the best single knob.
//! * [`rollout::StagedRollout`] — the canary state machine (1 % → 25 % →
//!   100 % of a service's replicas) with Welch/MAD QoS guardrails and
//!   automatic rollback, every transition recorded to the `rollout.*` ODS
//!   ledger.
//! * [`drift::DriftMonitor`] — rolling-window gain tracking over the
//!   deployed fleet (the code-push stream keeps running), flagging drift
//!   when the gain's confidence bound decays below the floor and producing
//!   a scoped [`drift::RetuneRequest`].
//! * [`lifecycle::RolloutPipeline`] — the closed tune → compose → rollout
//!   → monitor → re-tune cycle.
//! * [`coordinator::FleetCoordinator`] — many services' staged rollouts
//!   advanced concurrently on one shared deterministic worker pool, with
//!   per-service canary budgets, a fleet-wide blast-radius cap, a rollback
//!   circuit breaker, quarantine with exponential backoff, and graceful
//!   degradation to holdback configs when a failure domain goes dark —
//!   exercised by the seeded chaos campaign in
//!   [`softsku_cluster::ChaosSchedule`].
//!
//! Every random stream the lifecycle consumes is a registered
//! [`softsku_telemetry::streams::StreamFamily`] derivation of the lifecycle
//! base seed, so a whole run — including the drift-triggered re-tune — is a
//! pure function of `(config, seed)`, bit-identical across scheduler worker
//! counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod coordinator;
pub mod drift;
pub mod error;
pub mod lifecycle;
pub mod rollout;

pub use compose::{
    CandidateValidation, ComposerConfig, Composition, CompositionDecision, SkuComposer,
};
pub use coordinator::{
    demo_campaign, CanaryBudget, CoordinatorConfig, CoordinatorReport, FleetCoordinator,
    ServicePhase, ServicePlan, ServiceSummary,
};
pub use drift::{
    DeployedSku, DriftConfig, DriftMonitor, DriftOutcome, DriftVerdict, RetuneRequest, WindowGain,
};
pub use error::RolloutError;
pub use lifecycle::{CycleReport, LifecycleReport, PipelineConfig, RetunedCycle, RolloutPipeline};
pub use rollout::{
    RolloutConfig, RolloutReport, RolloutState, StageReport, StageViolation, StagedRollout,
    StepDecision,
};
