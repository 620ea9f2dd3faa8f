//! Content-addressed fingerprints for simulation inputs.
//!
//! The sweep farm (ROADMAP item 4) caches [`crate::RunReport`]s keyed
//! on *what was simulated*: the full [`SystemConfig`], the workload
//! identity and its [`RunSpec`], and the paradigm set. Because the
//! simulator is deterministic — byte-identical reports at any harness
//! parallelism — two submissions with equal fingerprints are guaranteed
//! to produce equal outputs, which is what makes serving a cached
//! result sound.
//!
//! Canonicalization rules:
//!
//! - Every absorbed value is framed as `tag ':' value ';'` with a
//!   length prefix, so adjacent fields can never alias (`"ab","c"` vs
//!   `"a","bc"` digest differently).
//! - Harness parallelism is *excluded*: sweep-level `--jobs` never
//!   reaches the config at all.
//! - The [`SystemConfig`] is absorbed through its `Debug` rendering.
//!   Every field of the config tree is `Copy` data rendered by derived
//!   `Debug` impls (no maps, no addresses), and Rust renders `f64` with
//!   shortest-roundtrip formatting, which is injective — so the
//!   rendering is a canonical byte encoding that automatically covers
//!   every current *and future* config field. A new knob added to
//!   `SystemConfig` changes the rendering and therefore the
//!   fingerprint, which fails safe (a spurious cache miss, never a
//!   stale hit).

use std::fmt::Write as _;

use workloads::RunSpec;

use crate::config::SystemConfig;
use crate::paradigm::Paradigm;

/// A canonical, unambiguous byte stream being fingerprinted.
///
/// Values are framed as `<tag>:<len>:<bytes>;` so no concatenation of
/// distinct field sequences can collide structurally.
#[derive(Debug, Default, Clone)]
pub struct CanonicalBytes {
    buf: Vec<u8>,
}

impl CanonicalBytes {
    /// Creates an empty stream.
    pub fn new() -> Self {
        CanonicalBytes::default()
    }

    /// Appends one tagged, length-prefixed value.
    pub fn push(&mut self, tag: &str, value: &str) {
        self.buf.extend_from_slice(tag.as_bytes());
        self.buf.push(b':');
        let mut len = String::new();
        let _ = write!(len, "{}", value.len());
        self.buf.extend_from_slice(len.as_bytes());
        self.buf.push(b':');
        self.buf.extend_from_slice(value.as_bytes());
        self.buf.push(b';');
    }

    /// The accumulated canonical bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Digests the accumulated stream.
    pub fn digest(&self) -> ConfigFingerprint {
        ConfigFingerprint::of(&self.buf)
    }
}

/// A 128-bit content fingerprint of canonical input bytes.
///
/// Two independent 64-bit FNV-1a lanes (distinct offset bases, the
/// second lane salted per byte position) are finalized through a
/// splitmix64 avalanche. This is not a cryptographic hash — cache keys
/// here defend against *accidental* collision across sweep points, and
/// 128 bits of well-mixed state makes that probability negligible for
/// any realistic cache population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigFingerprint {
    hi: u64,
    lo: u64,
}

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ConfigFingerprint {
    /// Digests `bytes`.
    pub fn of(bytes: &[u8]) -> Self {
        let mut a = FNV_OFFSET_A;
        let mut b = FNV_OFFSET_B;
        for (i, &byte) in bytes.iter().enumerate() {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(byte) ^ (i as u64).rotate_left(17)).wrapping_mul(FNV_PRIME);
        }
        // Cross-feed the lanes through an avalanche so a difference in
        // either lane perturbs all 128 output bits.
        let hi = splitmix(a ^ b.rotate_left(32));
        let lo = splitmix(b ^ a.rotate_left(32) ^ hi);
        ConfigFingerprint { hi, lo }
    }

    /// The fingerprint as 32 lowercase hex characters.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl std::fmt::Display for ConfigFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Builds the canonical fingerprint of one simulation request.
///
/// # Examples
///
/// ```
/// use system::{FingerprintBuilder, Paradigm, SystemConfig};
/// use workloads::RunSpec;
///
/// let cfg = SystemConfig::paper(4);
/// let spec = RunSpec::paper(4);
/// let a = FingerprintBuilder::new()
///     .system(&cfg)
///     .workload("pagerank", &spec)
///     .paradigms(&Paradigm::FIG9)
///     .finish();
/// // Equal inputs fingerprint identically.
/// let b = FingerprintBuilder::new()
///     .system(&cfg)
///     .workload("pagerank", &spec)
///     .paradigms(&Paradigm::FIG9)
///     .finish();
/// assert_eq!(a, b);
/// // Any simulated-system knob is covered.
/// let c = FingerprintBuilder::new()
///     .system(&cfg.open_loop())
///     .workload("pagerank", &spec)
///     .paradigms(&Paradigm::FIG9)
///     .finish();
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Default)]
pub struct FingerprintBuilder {
    bytes: CanonicalBytes,
}

impl FingerprintBuilder {
    /// Starts an empty fingerprint.
    pub fn new() -> Self {
        FingerprintBuilder::default()
    }

    /// Absorbs an arbitrary tagged field (build stamps, wire schema
    /// versions, supervision knobs that change *output text*).
    pub fn field(mut self, tag: &str, value: &str) -> Self {
        self.bytes.push(tag, value);
        self
    }

    /// Absorbs a tagged integer.
    pub fn u64(self, tag: &str, value: u64) -> Self {
        let mut s = String::new();
        let _ = write!(s, "{value}");
        self.field(tag, &s)
    }

    /// Absorbs the complete simulated-system configuration.
    ///
    /// The config is rendered via `Debug` (see the module docs for why
    /// that rendering is canonical) and absorbed.
    pub fn system(mut self, cfg: &SystemConfig) -> Self {
        let mut rendered = String::new();
        let _ = write!(rendered, "{cfg:?}");
        self.bytes.push("system", &rendered);
        self
    }

    /// Absorbs the workload identity: app name plus the full
    /// [`RunSpec`] (GPU count, iterations, seed, scale-down, scaling).
    pub fn workload(mut self, app: &str, spec: &RunSpec) -> Self {
        self.bytes.push("app", app);
        let mut rendered = String::new();
        let _ = write!(rendered, "{spec:?}");
        self.bytes.push("spec", &rendered);
        self
    }

    /// Absorbs the ordered paradigm set under comparison.
    pub fn paradigms(mut self, paradigms: &[Paradigm]) -> Self {
        let mut rendered = String::new();
        for p in paradigms {
            let _ = write!(rendered, "{p:?},");
        }
        self.bytes.push("paradigms", &rendered);
        self
    }

    /// Finalizes the digest.
    pub fn finish(self) -> ConfigFingerprint {
        self.bytes.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::RunBudget;
    use crate::config::{CreditConfig, FlowControlMode};
    use crate::fault::FaultProfile;
    use crate::topology::Topology;
    use protocol::PcieGen;
    use sim_engine::SimTime;
    use std::collections::HashSet;

    fn fp(cfg: &SystemConfig) -> ConfigFingerprint {
        FingerprintBuilder::new()
            .system(cfg)
            .workload("pagerank", &RunSpec::paper(cfg.num_gpus))
            .paradigms(&Paradigm::FIG9)
            .finish()
    }

    #[test]
    fn framing_prevents_field_aliasing() {
        let a = CanonicalBytes::new();
        let mut ab = a.clone();
        ab.push("t", "ab");
        ab.push("t", "c");
        let mut cd = CanonicalBytes::new();
        cd.push("t", "a");
        cd.push("t", "bc");
        assert_ne!(ab.as_bytes(), cd.as_bytes());
        assert_ne!(ab.digest(), cd.digest());
    }

    #[test]
    fn digest_is_stable_and_hex_is_32_chars() {
        let d = ConfigFingerprint::of(b"finepack");
        assert_eq!(d, ConfigFingerprint::of(b"finepack"));
        assert_eq!(d.hex().len(), 32);
        assert_eq!(d.hex(), format!("{d}"));
        assert_ne!(d, ConfigFingerprint::of(b"finepacl"));
    }

    #[test]
    fn position_salt_distinguishes_permutations() {
        assert_ne!(ConfigFingerprint::of(b"ab"), ConfigFingerprint::of(b"ba"));
    }

    /// The cache-correctness property test the ISSUE asks for: every
    /// single-field perturbation of [`SystemConfig`] must yield a
    /// distinct fingerprint (no two sweep points can collide on a
    /// stale cached result), while harness knobs must *not* perturb it.
    #[test]
    fn every_config_knob_perturbs_the_fingerprint() {
        let base = SystemConfig::paper(4);
        let mut variants: Vec<SystemConfig> = vec![base];

        variants.push(SystemConfig::paper(8));
        variants.push(base.with_pcie_gen(PcieGen::Gen5));
        variants.push(base.with_pcie_gen(PcieGen::Gen6));
        variants.push(base.with_topology(Topology::TwoLevel { gpus_per_leaf: 2 }));
        variants.push({
            let mut c = base;
            c.barrier_overhead = SimTime::from_ns(2_000);
            c
        });
        variants.push({
            let mut c = base;
            c.dma_sw_overhead = SimTime::from_ns(2_000);
            c
        });
        variants.push({
            let mut c = base;
            c.hop_latency = SimTime::from_ns(750);
            c
        });
        variants.push({
            let mut c = base;
            c.combining_entries = 128;
            c
        });
        variants.push(base.with_finepack_timeout(SimTime::from_us(1)));
        variants.push({
            let mut c = base;
            c.seed = 0xDEAD_BEEF;
            c
        });
        variants.push(base.with_faults(FaultProfile::new(1e-9)));
        variants.push(base.open_loop());
        variants.push(base.with_flow_control(FlowControlMode::Credited(CreditConfig::generous())));
        variants.push(base.with_run_budget(RunBudget::unlimited().with_max_events(1 << 20)));
        variants.push({
            let mut c = base;
            c.finepack.max_payload = 2048;
            c
        });
        variants.push({
            let mut c = base;
            c.gpu.num_sms = 40;
            c
        });

        let digests: HashSet<_> = variants.iter().map(fp).collect();
        assert_eq!(
            digests.len(),
            variants.len(),
            "two distinct configs collided on one fingerprint"
        );
    }

    #[test]
    fn workload_identity_is_covered() {
        let cfg = SystemConfig::paper(4);
        let spec = RunSpec::paper(4);
        let base = FingerprintBuilder::new()
            .system(&cfg)
            .workload("pagerank", &spec)
            .paradigms(&Paradigm::FIG9)
            .finish();

        let other_app = FingerprintBuilder::new()
            .system(&cfg)
            .workload("jacobi", &spec)
            .paradigms(&Paradigm::FIG9)
            .finish();
        assert_ne!(base, other_app);

        let mut scaled = spec;
        scaled.scale_down = 16;
        let other_spec = FingerprintBuilder::new()
            .system(&cfg)
            .workload("pagerank", &scaled)
            .paradigms(&Paradigm::FIG9)
            .finish();
        assert_ne!(base, other_spec);

        let fewer_paradigms = FingerprintBuilder::new()
            .system(&cfg)
            .workload("pagerank", &spec)
            .paradigms(&[Paradigm::FinePack])
            .finish();
        assert_ne!(base, fewer_paradigms);
    }

    #[test]
    fn free_form_fields_are_covered() {
        let a = FingerprintBuilder::new().field("build", "abc").finish();
        let b = FingerprintBuilder::new().field("build", "abd").finish();
        let c = FingerprintBuilder::new().u64("retries", 2).finish();
        let d = FingerprintBuilder::new().u64("retries", 3).finish();
        assert_ne!(a, b);
        assert_ne!(c, d);
    }
}
