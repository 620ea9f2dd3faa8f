//! Job requests: the wire-level description of one sweep point, its
//! validation, and its canonical cache fingerprint.

use finepack::FinePackConfig;
use protocol::PcieGen;
use sim_engine::SimTime;
use system::{
    CreditConfig, FaultProfile, FingerprintBuilder, FlowControlMode, Paradigm, RunBudget,
    SystemConfig,
};
use workloads::{CollectiveTuning, MsgDist, RunSpec, COLLECTIVE_REGISTRY};

use crate::error::FarmError;
use crate::json::Json;
use crate::version::{build_fingerprint, WIRE_SCHEMA_VERSION};

/// What a job simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One app across every paradigm (the CLI `run` table).
    Run,
    /// The whole application suite under the supervisor (the CLI
    /// `suite` table).
    Suite,
}

impl JobKind {
    fn as_str(self) -> &'static str {
        match self {
            JobKind::Run => "run",
            JobKind::Suite => "suite",
        }
    }
}

/// Paradigm order of the `run` table (matches the one-shot CLI).
pub const RUN_PARADIGMS: [Paradigm; 6] = [
    Paradigm::BulkDma,
    Paradigm::P2pStores,
    Paradigm::WriteCombining,
    Paradigm::Gps,
    Paradigm::FinePack,
    Paradigm::InfiniteBw,
];

/// A run-budget specification (mirrors the CLI `--run-budget` parts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSpec {
    /// Event ceiling.
    pub events: Option<u64>,
    /// Simulated-time ceiling, milliseconds.
    pub sim_ms: Option<u64>,
    /// Progress watchdog: events without forward progress.
    pub stall: Option<u64>,
}

impl BudgetSpec {
    fn is_empty(&self) -> bool {
        self.events.is_none() && self.sim_ms.is_none() && self.stall.is_none()
    }

    fn to_run_budget(self) -> RunBudget {
        let mut budget = RunBudget::unlimited();
        if let Some(n) = self.events {
            budget = budget.with_max_events(n);
        }
        if let Some(n) = self.sim_ms {
            budget = budget.with_max_sim_time(SimTime::from_ms(n));
        }
        if let Some(n) = self.stall {
            budget = budget.with_progress_watchdog(n);
        }
        budget
    }
}

/// One sweep-point request, with the same knobs and defaults as the
/// one-shot CLI `run` / `suite` commands.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Run one app, or the supervised suite.
    pub kind: JobKind,
    /// App name (`run` kind only; default `pagerank`).
    pub app: Option<String>,
    /// GPUs in the node.
    pub gpus: u8,
    /// PCIe generation: 4, 5, or 6.
    pub pcie: u8,
    /// Iterations to simulate.
    pub iterations: u32,
    /// Problem-size divisor.
    pub scale_down: u32,
    /// Experiment seed.
    pub seed: u64,
    /// FinePack address windows per RWQ partition.
    pub windows: u32,
    /// `true` = open-loop flow control; `false` = the paper's credited
    /// pool (the default).
    pub open_loop: bool,
    /// Collective payload bytes per GPU (`run` kind, collective apps
    /// only; default [`CollectiveTuning::default`]'s).
    pub payload: Option<u64>,
    /// Collective message-size distribution in canonical string form
    /// (`fixed:N` / `uniform:MIN:MAX` / `bimodal:FINE:BULK:PCT`;
    /// `run` kind, collective apps only).
    pub msg_dist: Option<String>,
    /// Optional link bit-error rate (`run` kind only).
    pub ber: Option<f64>,
    /// Optional fault profile name (`run` kind only).
    pub fault_profile: Option<String>,
    /// Supervision: retry budget per sweep point (`suite` kind only).
    pub retries: u32,
    /// Supervision: chaos injection rate (`suite` kind only).
    pub chaos: Option<f64>,
    /// Optional run budget.
    pub budget: Option<BudgetSpec>,
    /// Run the conservation auditor on cache misses and stamp the
    /// cached entry. Not part of the fingerprint: an audited and an
    /// unaudited submission of the same point share one cache slot.
    pub audit: bool,
}

impl JobRequest {
    /// A request with the CLI's defaults for `kind`.
    pub fn new(kind: JobKind) -> Self {
        let spec = RunSpec::paper(4);
        JobRequest {
            kind,
            app: None,
            gpus: spec.num_gpus,
            pcie: 4,
            iterations: spec.iterations,
            scale_down: spec.scale_down,
            seed: spec.seed,
            windows: 1,
            open_loop: false,
            payload: None,
            msg_dist: None,
            ber: None,
            fault_profile: None,
            retries: 0,
            chaos: None,
            budget: None,
            audit: false,
        }
    }

    /// The app name this job runs (`run` kind), after defaulting.
    pub fn app_name(&self) -> &str {
        self.app.as_deref().unwrap_or("pagerank")
    }

    /// Whether this job's app is one of the collective workloads.
    pub fn is_collective(&self) -> bool {
        COLLECTIVE_REGISTRY
            .iter()
            .any(|(n, _)| *n == self.app_name())
    }

    /// The resolved collective tuning: CLI defaults overridden by the
    /// request's `payload` / `msg_dist` knobs. The fingerprint absorbs
    /// this *resolved* form, so a sparse request and an
    /// explicit-defaults request share one cache slot.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unparseable distribution
    /// or an out-of-range payload.
    pub fn collective_tuning(&self) -> Result<CollectiveTuning, String> {
        let mut tuning = CollectiveTuning::default();
        if let Some(p) = self.payload {
            tuning.payload_bytes = p;
        }
        if let Some(d) = &self.msg_dist {
            tuning.msg = MsgDist::parse(d)?;
        }
        tuning.validate()?;
        Ok(tuning)
    }

    /// Checks every field range so [`JobRequest::build`] can never
    /// panic inside the daemon.
    ///
    /// # Errors
    ///
    /// Returns [`FarmError::Invalid`] naming the offending field.
    pub fn validate(&self) -> Result<(), FarmError> {
        let invalid = |msg: String| Err(FarmError::Invalid(msg));
        if !(2..=64).contains(&self.gpus) {
            return invalid(format!("gpus must be 2-64, got {}", self.gpus));
        }
        if !matches!(self.pcie, 4..=6) {
            return invalid(format!("pcie must be 4, 5, or 6, got {}", self.pcie));
        }
        if self.iterations == 0 {
            return invalid("iterations must be positive".into());
        }
        if self.scale_down == 0 {
            return invalid("scale_down must be positive".into());
        }
        if !(1..=64).contains(&self.windows) {
            return invalid(format!("windows must be 1-64, got {}", self.windows));
        }
        if let Some(ber) = self.ber {
            if !(0.0..=1.0).contains(&ber) {
                return invalid(format!("ber must be in [0, 1], got {ber}"));
            }
        }
        if let Some(rate) = self.chaos {
            if !(0.0..=1.0).contains(&rate) {
                return invalid(format!("chaos must be in [0, 1], got {rate}"));
            }
        }
        if let Some(name) = &self.fault_profile {
            if !matches!(
                name.as_str(),
                "clean" | "noisy" | "outage" | "degraded" | "stuck"
            ) {
                return invalid(format!(
                    "fault_profile must be clean, noisy, outage, degraded, or stuck, got `{name}`"
                ));
            }
        }
        if let Some(b) = &self.budget {
            if b.is_empty() {
                return invalid("budget must set events, sim_ms, or stall".into());
            }
            for (name, v) in [
                ("events", b.events),
                ("sim_ms", b.sim_ms),
                ("stall", b.stall),
            ] {
                if v == Some(0) {
                    return invalid(format!("budget.{name} must be positive"));
                }
            }
        }
        match self.kind {
            JobKind::Run => {
                if self.retries != 0 || self.chaos.is_some() {
                    return invalid(
                        "run jobs take no retries/chaos (supervision is suite-only)".into(),
                    );
                }
                if (self.payload.is_some() || self.msg_dist.is_some()) && !self.is_collective() {
                    return invalid(format!(
                        "payload/msg_dist apply to collective apps only, and `{}` is not one",
                        self.app_name()
                    ));
                }
                if let Err(e) = self.collective_tuning() {
                    return invalid(e);
                }
            }
            JobKind::Suite => {
                if self.app.is_some() {
                    return invalid("suite jobs take no app (the whole suite runs)".into());
                }
                if self.ber.is_some() || self.fault_profile.is_some() {
                    return invalid("suite jobs take no ber/fault_profile".into());
                }
                if self.payload.is_some() || self.msg_dist.is_some() {
                    return invalid(
                        "suite jobs take no payload/msg_dist (collectives are run-only)".into(),
                    );
                }
            }
        }
        Ok(())
    }

    /// Builds the [`RunSpec`] and [`SystemConfig`] this job simulates,
    /// exactly as the one-shot CLI would. Call [`JobRequest::validate`]
    /// first; this constructor trusts the ranges.
    pub fn build(&self) -> (RunSpec, SystemConfig) {
        let mut spec = RunSpec::paper(self.gpus);
        spec.iterations = self.iterations;
        spec.scale_down = self.scale_down;
        spec.seed = self.seed;
        spec.validate();
        let gen = match self.pcie {
            5 => PcieGen::Gen5,
            6 => PcieGen::Gen6,
            _ => PcieGen::Gen4,
        };
        let fp = FinePackConfig::paper(u32::from(self.gpus)).with_windows(self.windows);
        let flow = if self.open_loop {
            FlowControlMode::Open
        } else {
            FlowControlMode::Credited(CreditConfig::paper())
        };
        let mut cfg = SystemConfig::paper(self.gpus)
            .with_pcie_gen(gen)
            .with_finepack(fp)
            .with_flow_control(flow);
        if let Some(profile) =
            fault_profile_for(self.ber, self.fault_profile.as_deref()).expect("validated")
        {
            cfg = cfg.with_faults(profile);
        }
        if let Some(budget) = self.budget {
            cfg = cfg.with_run_budget(budget.to_run_budget());
        }
        (spec, cfg)
    }

    /// The paradigm set this job compares.
    pub fn paradigms(&self) -> &'static [Paradigm] {
        match self.kind {
            JobKind::Run => &RUN_PARADIGMS,
            JobKind::Suite => &Paradigm::FIG9,
        }
    }

    /// The canonical cache fingerprint of this request.
    ///
    /// Covers the full simulated system (its [`SystemConfig`]), the
    /// workload identity, the paradigm set, the supervision knobs that
    /// shape the rendered report, the wire schema, and the build
    /// fingerprint — so a recompiled binary or a changed protocol can
    /// never serve a stale entry. Excluded: harness parallelism (`jobs`;
    /// results are proven bit-identical across it) and the `audit` flag
    /// (auditing stamps an entry, it does not change the simulated
    /// result).
    pub fn fingerprint(&self) -> system::ConfigFingerprint {
        let (spec, cfg) = self.build();
        let app = match self.kind {
            JobKind::Run => self.app_name(),
            JobKind::Suite => "<suite>",
        };
        let mut builder = FingerprintBuilder::new()
            .field("build", &build_fingerprint())
            .u64("wire", u64::from(WIRE_SCHEMA_VERSION))
            .field("kind", self.kind.as_str())
            .system(&cfg)
            .workload(app, &spec)
            .paradigms(self.paradigms())
            .u64("retries", u64::from(self.retries))
            .field("chaos", &format!("{:?}", self.chaos));
        if self.kind == JobKind::Run && self.is_collective() {
            // The resolved (not raw) tuning, so sparse and
            // explicit-default requests share a slot while any real
            // parameter change misses the cache.
            let tuning = self.collective_tuning().expect("validated");
            builder = builder
                .u64("payload", tuning.payload_bytes)
                .field("msg_dist", &tuning.msg.to_string());
        }
        builder.finish()
    }

    /// Serializes the request as a JSON object (all fields explicit).
    pub fn to_json(&self) -> Json {
        let opt_f64 = |v: Option<f64>| match v {
            Some(x) => Json::Num(format!("{x:?}")),
            None => Json::Null,
        };
        let opt_u64 = |v: Option<u64>| match v {
            Some(x) => Json::num(x),
            None => Json::Null,
        };
        let budget = match &self.budget {
            None => Json::Null,
            Some(b) => Json::Obj(vec![
                ("events".into(), opt_u64(b.events)),
                ("sim_ms".into(), opt_u64(b.sim_ms)),
                ("stall".into(), opt_u64(b.stall)),
            ]),
        };
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            (
                "app".into(),
                match &self.app {
                    Some(a) => Json::Str(a.clone()),
                    None => Json::Null,
                },
            ),
            ("gpus".into(), Json::num(self.gpus)),
            ("pcie".into(), Json::num(self.pcie)),
            ("iterations".into(), Json::num(self.iterations)),
            ("scale_down".into(), Json::num(self.scale_down)),
            ("seed".into(), Json::num(self.seed)),
            ("windows".into(), Json::num(self.windows)),
            (
                "flow_control".into(),
                Json::Str(if self.open_loop { "open" } else { "credited" }.into()),
            ),
            ("payload".into(), opt_u64(self.payload)),
            (
                "msg_dist".into(),
                match &self.msg_dist {
                    Some(d) => Json::Str(d.clone()),
                    None => Json::Null,
                },
            ),
            ("ber".into(), opt_f64(self.ber)),
            (
                "fault_profile".into(),
                match &self.fault_profile {
                    Some(p) => Json::Str(p.clone()),
                    None => Json::Null,
                },
            ),
            ("retries".into(), Json::num(self.retries)),
            ("chaos".into(), opt_f64(self.chaos)),
            ("budget".into(), budget),
            ("audit".into(), Json::Bool(self.audit)),
        ])
    }

    /// Deserializes a request from a JSON object. Absent fields take
    /// the CLI defaults; unknown fields are rejected (a typoed knob
    /// must not silently fingerprint as the default).
    ///
    /// # Errors
    ///
    /// Returns [`FarmError::Malformed`] for structural problems and
    /// [`FarmError::Invalid`] for out-of-range values.
    pub fn from_json(v: &Json) -> Result<Self, FarmError> {
        let Json::Obj(fields) = v else {
            return Err(FarmError::Malformed("job must be an object".into()));
        };
        let kind = match v.get("kind").and_then(Json::as_str) {
            Some("run") => JobKind::Run,
            Some("suite") => JobKind::Suite,
            _ => {
                return Err(FarmError::Malformed(
                    "job.kind must be \"run\" or \"suite\"".into(),
                ))
            }
        };
        let mut req = JobRequest::new(kind);
        let num = |field: &str, val: &Json| -> Result<u64, FarmError> {
            val.as_num::<u64>()
                .ok_or_else(|| FarmError::Malformed(format!("job.{field} must be an integer")))
        };
        for (key, val) in fields {
            if *val == Json::Null {
                continue;
            }
            match key.as_str() {
                "kind" => {}
                "app" => {
                    req.app = Some(
                        val.as_str()
                            .ok_or_else(|| FarmError::Malformed("job.app must be a string".into()))?
                            .to_string(),
                    );
                }
                "gpus" => req.gpus = num(key, val)? as u8,
                "pcie" => req.pcie = num(key, val)? as u8,
                "iterations" => req.iterations = num(key, val)? as u32,
                "scale_down" => req.scale_down = num(key, val)? as u32,
                "seed" => req.seed = num(key, val)?,
                "windows" => req.windows = num(key, val)? as u32,
                "payload" => req.payload = Some(num(key, val)?),
                "msg_dist" => {
                    req.msg_dist = Some(
                        val.as_str()
                            .ok_or_else(|| {
                                FarmError::Malformed("job.msg_dist must be a string".into())
                            })?
                            .to_string(),
                    );
                }
                "flow_control" => {
                    req.open_loop = match val.as_str() {
                        Some("open") => true,
                        Some("credited") => false,
                        _ => {
                            return Err(FarmError::Malformed(
                                "job.flow_control must be \"open\" or \"credited\"".into(),
                            ))
                        }
                    };
                }
                "ber" => {
                    req.ber =
                        Some(val.as_num::<f64>().ok_or_else(|| {
                            FarmError::Malformed("job.ber must be a number".into())
                        })?);
                }
                "fault_profile" => {
                    req.fault_profile = Some(
                        val.as_str()
                            .ok_or_else(|| {
                                FarmError::Malformed("job.fault_profile must be a string".into())
                            })?
                            .to_string(),
                    );
                }
                "retries" => req.retries = num(key, val)? as u32,
                "chaos" => {
                    req.chaos = Some(val.as_num::<f64>().ok_or_else(|| {
                        FarmError::Malformed("job.chaos must be a number".into())
                    })?);
                }
                "budget" => {
                    let Json::Obj(parts) = val else {
                        return Err(FarmError::Malformed("job.budget must be an object".into()));
                    };
                    let mut b = BudgetSpec::default();
                    for (bk, bv) in parts {
                        if *bv == Json::Null {
                            continue;
                        }
                        match bk.as_str() {
                            "events" => b.events = Some(num("budget.events", bv)?),
                            "sim_ms" => b.sim_ms = Some(num("budget.sim_ms", bv)?),
                            "stall" => b.stall = Some(num("budget.stall", bv)?),
                            other => {
                                return Err(FarmError::Malformed(format!(
                                    "unknown job.budget field `{other}`"
                                )))
                            }
                        }
                    }
                    req.budget = Some(b);
                }
                "audit" => {
                    req.audit = val
                        .as_bool()
                        .ok_or_else(|| FarmError::Malformed("job.audit must be a bool".into()))?;
                }
                other => return Err(FarmError::Malformed(format!("unknown job field `{other}`"))),
            }
        }
        req.validate()?;
        Ok(req)
    }
}

/// Builds a [`FaultProfile`] from a bit-error rate and/or a named
/// profile — the single definition of the CLI's `--ber` /
/// `--fault-profile` semantics, shared by the daemon and the one-shot
/// commands.
///
/// # Errors
///
/// Returns a human-readable message for an unknown profile name or an
/// out-of-range BER.
pub fn fault_profile_for(
    ber: Option<f64>,
    name: Option<&str>,
) -> Result<Option<FaultProfile>, String> {
    let profile = match name {
        None => ber.map(FaultProfile::new),
        Some(name) => {
            let base = FaultProfile::new(ber.unwrap_or(match name {
                "clean" | "outage" | "stuck" => 0.0,
                _ => 1e-7,
            }));
            Some(match name {
                "clean" | "noisy" => base,
                "outage" => base.with_outage(0, SimTime::from_us(5), SimTime::from_us(60)),
                "degraded" => base
                    .with_outage(0, SimTime::from_us(5), SimTime::from_us(60))
                    .with_degrade(0.5),
                "stuck" => base.stuck_link(0, SimTime::ZERO),
                other => {
                    return Err(format!(
                        "unknown fault profile `{other}` (expected clean, noisy, outage, \
                         degraded, or stuck)"
                    ))
                }
            })
        }
    };
    if let Some(p) = &profile {
        if !(0.0..=1.0).contains(&p.ber) {
            return Err(format!("bit-error rate must be in [0, 1], got {}", p.ber));
        }
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn collective_requests_roundtrip_and_validate() {
        let mut req = JobRequest::new(JobKind::Run);
        req.app = Some("ring-allreduce".into());
        req.payload = Some(1 << 20);
        req.msg_dist = Some("fixed:256".into());
        req.validate().unwrap();
        let back = JobRequest::from_json(&parse(&req.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, req);

        // Collective knobs are rejected on non-collective apps and on
        // suite jobs, and malformed distributions never reach build().
        let mut wrong_app = JobRequest::new(JobKind::Run);
        wrong_app.app = Some("jacobi".into());
        wrong_app.payload = Some(1 << 20);
        assert!(wrong_app.validate().is_err());
        let mut suite = JobRequest::new(JobKind::Suite);
        suite.payload = Some(1 << 20);
        assert!(suite.validate().is_err());
        let mut bad_dist = JobRequest::new(JobKind::Run);
        bad_dist.app = Some("alltoall".into());
        bad_dist.msg_dist = Some("poisson:9".into());
        assert!(bad_dist.validate().is_err());
        let mut bad_payload = JobRequest::new(JobKind::Run);
        bad_payload.app = Some("alltoall".into());
        bad_payload.payload = Some(7);
        assert!(bad_payload.validate().is_err());
    }

    #[test]
    fn collective_parameters_reach_the_fingerprint() {
        let mut base = JobRequest::new(JobKind::Run);
        base.app = Some("ring-allreduce".into());

        // Sparse and explicit-default forms share one cache slot.
        let tuning = CollectiveTuning::default();
        let mut explicit = base.clone();
        explicit.payload = Some(tuning.payload_bytes);
        explicit.msg_dist = Some(tuning.msg.to_string());
        assert_eq!(base.fingerprint(), explicit.fingerprint());

        // Perturbing either knob must miss the cache.
        let mut payload = base.clone();
        payload.payload = Some(tuning.payload_bytes / 2);
        assert_ne!(base.fingerprint(), payload.fingerprint());
        let mut dist = base.clone();
        dist.msg_dist = Some("fixed:64".into());
        assert_ne!(base.fingerprint(), dist.fingerprint());

        // Different collectives never share a slot.
        let mut other = base.clone();
        other.app = Some("tree-allreduce".into());
        assert_ne!(base.fingerprint(), other.fingerprint());
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let mut req = JobRequest::new(JobKind::Run);
        req.app = Some("jacobi".into());
        req.gpus = 2;
        req.pcie = 6;
        req.iterations = 1;
        req.scale_down = 16;
        req.seed = u64::MAX - 7;
        req.windows = 4;
        req.open_loop = true;
        req.ber = Some(1e-8);
        req.fault_profile = Some("noisy".into());
        req.budget = Some(BudgetSpec {
            events: Some(10),
            sim_ms: Some(20),
            stall: Some(30),
        });
        req.audit = true;
        let back = JobRequest::from_json(&parse(&req.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, req);

        let mut suite = JobRequest::new(JobKind::Suite);
        suite.retries = 2;
        suite.chaos = Some(0.05);
        let back = JobRequest::from_json(&parse(&suite.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, suite);
    }

    #[test]
    fn sparse_requests_take_cli_defaults() {
        let req = JobRequest::from_json(&parse(r#"{"kind":"suite"}"#).unwrap()).unwrap();
        assert_eq!(req.gpus, 4);
        assert_eq!(req.iterations, 2);
        assert_eq!(req.seed, 0xF14E_9ACC);
        assert!(!req.open_loop);
        // A sparse and an explicit-defaults form fingerprint the same.
        assert_eq!(
            req.fingerprint(),
            JobRequest::new(JobKind::Suite).fingerprint()
        );
    }

    #[test]
    fn unknown_fields_are_rejected() {
        for bad in [
            r#"{"kind":"run","gpsu":4}"#,
            r#"{"kind":"warp"}"#,
            r#"{"kind":"run","budget":{"cycles":5}}"#,
            r#"[]"#,
        ] {
            assert!(
                JobRequest::from_json(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn validation_enforces_kind_specific_knobs() {
        let mut run = JobRequest::new(JobKind::Run);
        run.chaos = Some(0.1);
        assert!(run.validate().is_err());
        let mut suite = JobRequest::new(JobKind::Suite);
        suite.app = Some("jacobi".into());
        assert!(suite.validate().is_err());
        let mut suite = JobRequest::new(JobKind::Suite);
        suite.ber = Some(1e-8);
        assert!(suite.validate().is_err());
        let mut bad_gpus = JobRequest::new(JobKind::Run);
        bad_gpus.gpus = 1;
        assert!(bad_gpus.validate().is_err());
        let mut bad_budget = JobRequest::new(JobKind::Run);
        bad_budget.budget = Some(BudgetSpec::default());
        assert!(bad_budget.validate().is_err());
    }

    #[test]
    fn fingerprint_separates_kinds_and_knobs() {
        let run = JobRequest::new(JobKind::Run);
        let suite = JobRequest::new(JobKind::Suite);
        assert_ne!(run.fingerprint(), suite.fingerprint());

        let mut seeded = JobRequest::new(JobKind::Run);
        seeded.seed = 1;
        assert_ne!(run.fingerprint(), seeded.fingerprint());

        let mut retried = JobRequest::new(JobKind::Suite);
        retried.retries = 1;
        assert_ne!(suite.fingerprint(), retried.fingerprint());

        // The audit flag shares a cache slot by design.
        let mut audited = JobRequest::new(JobKind::Run);
        audited.audit = true;
        assert_eq!(run.fingerprint(), audited.fingerprint());
    }

    #[test]
    fn fault_profile_semantics_match_the_cli() {
        assert!(fault_profile_for(None, None).unwrap().is_none());
        assert_eq!(
            fault_profile_for(Some(1e-8), None).unwrap().unwrap().ber,
            1e-8
        );
        // Named profiles default their BER by name.
        assert_eq!(
            fault_profile_for(None, Some("noisy")).unwrap().unwrap().ber,
            1e-7
        );
        assert_eq!(
            fault_profile_for(None, Some("outage"))
                .unwrap()
                .unwrap()
                .ber,
            0.0
        );
        assert!(fault_profile_for(None, Some("gremlins")).is_err());
        assert!(fault_profile_for(Some(2.0), None).is_err());
    }
}
