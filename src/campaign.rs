//! The `ugc fleet` campaign, as data: parameters and the plan they
//! deterministically expand into.
//!
//! [`FleetParams`] is the versioned, codec-stable record of everything
//! that defines a fleet campaign — roster shape, workload size, scheme,
//! seed, chaos — plus the transport it runs over, which is execution
//! layout and never encoded. It travels in two places: the write-ahead
//! journal's header app blob (so `ugc fleet --resume` rebuilds the
//! identical campaign from the journal alone) and the wire handshake's
//! `Welcome` payload (so a `ugc participant join` process in another OS
//! process expands the *same* plan the supervisor runs — same task, same
//! derived scheme seeds, same cheater roster — which is what makes a
//! cross-process campaign's digest bit-identical to the in-process run).
//!
//! [`CampaignPlan`] is that expansion: the task, screener, behaviours
//! and per-member scheme instances, plus the slot arithmetic shared by
//! the supervisor (which numbers sessions) and a join process (which
//! demultiplexes them by task id).

use std::time::Duration;
use ugc_core::{
    FleetScheme, LaneWidth, MemberSpec, MixedFleetConfig, Parallelism, ParticipantContext,
    ParticipantSession, ParticipantStorage, SchemeError, TransportKind, VerificationScheme,
};
use ugc_grid::codec::{get_bytes, get_var, put_bytes, put_var};
use ugc_grid::runtime::FaultPlan;
use ugc_grid::{
    CheatSelection, CostLedger, GridError, HonestWorker, SemiHonestCheater, WorkerBehaviour,
};
use ugc_hash::Sha256;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{Domain, MatchScreener, ZeroGuesser};

/// Version tag of the [`FleetParams`] codec layout (bump on any change).
/// Version 1 carried a bare `--broker` bool and version 2 the full
/// [`TransportKind`]; version 3 carries no transport, so a campaign's blob
/// — and the journal holding it — is the same bytes over every transport.
/// Version 4 writes every word, the version included, in LEB128 where
/// versions 1–3 wrote 8 bytes: an older blob still leads with its version.
pub const FLEET_PARAMS_VERSION: u64 = 4;

/// The largest roster a [`FleetParams`] may declare. The count is a raw
/// `u64` off a relay's `Welcome` or a journal header and sizes the plan's
/// per-member allocations, so [`CampaignPlan::new`] refuses more before it
/// allocates: 65 times the 1000-slot scale soak, a few megabytes at most.
pub const MAX_FLEET_PARTICIPANTS: u64 = 1 << 16;

/// The largest `m` (samples or ringers per member) a scheme may be given.
/// Like the roster size, `m` arrives as a raw `u64` — a CLI flag, a relay's
/// `Welcome`, a journal header — and sizes the challenge and its opening,
/// so [`FleetParams::fleet_scheme`] refuses more before anything is
/// allocated or derived by it: four orders of magnitude above any `m` the
/// paper's Eq. (3) asks for (`ε = 10⁻⁴` at `r = 0.99` needs 917).
pub const MAX_SAMPLES: u64 = 1 << 20;

/// The campaign-defining `fleet` parameters, and the transport the
/// campaign runs over. Journaled campaigns encode the former into the
/// header's app blob, so `--resume` rebuilds the identical campaign —
/// task, roster, chaos plan, deadline, retry budget — from the journal
/// alone, over whichever transport it is given; `ugc broker serve`
/// forwards them in the handshake `Welcome`, so join processes expand the
/// identical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetParams {
    /// Fleet size (members, not slots — double-check runs two slots per
    /// member).
    pub participants: u64,
    /// How many members (the first `cheaters` of the roster) run the
    /// semi-honest cheater behaviour.
    pub cheaters: u64,
    /// Domain size: inputs 0..n, split evenly across members.
    pub n: u64,
    /// Samples (CBS/NI-CBS/naive) or ringers per member.
    pub m: u64,
    /// Base seed; member `i` gets a derived scheme seed.
    pub seed: u64,
    /// Scheme name as the CLI spells it (`cbs`, `ni-cbs`, `naive`,
    /// `ringer`, `double-check`).
    pub scheme: String,
    /// How the fleet's messages move — the one transport-selection knob.
    /// Execution layout: never encoded, so [`decode`](Self::decode)
    /// yields [`TransportKind::Direct`] and the caller picks the transport.
    pub transport: TransportKind,
    /// Whether the chaos plan adds participant crash/restart churn.
    pub churn: bool,
    /// Seeded fault injection on every participant link (`None` runs
    /// clean).
    pub chaos_seed: Option<u64>,
}

impl FleetParams {
    /// Encodes the params as a versioned blob (journal header app blob
    /// and handshake `Welcome` payload share this layout).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_var(&mut buf, FLEET_PARAMS_VERSION);
        put_var(&mut buf, self.participants);
        put_var(&mut buf, self.cheaters);
        put_var(&mut buf, self.n);
        put_var(&mut buf, self.m);
        put_var(&mut buf, self.seed);
        put_bytes(&mut buf, self.scheme.as_bytes());
        put_var(&mut buf, u64::from(self.churn));
        match self.chaos_seed {
            None => put_var(&mut buf, 0),
            Some(seed) => {
                put_var(&mut buf, 1);
                put_var(&mut buf, seed);
            }
        }
        buf
    }

    /// Decodes a blob written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// A human-readable message on a truncated, trailing-bytes or
    /// foreign-version blob (older versions are refused rather than
    /// guessed at), or a flag other than 0 or 1.
    pub fn decode(blob: &[u8]) -> Result<Self, String> {
        let err = |e: GridError| format!("campaign params blob: {e}");
        let mut buf = blob;
        let version = get_var(&mut buf, "params blob version").map_err(err)?;
        if version != FLEET_PARAMS_VERSION {
            return Err(format!(
                "campaign params blob version {version} (this build reads \
                 {FLEET_PARAMS_VERSION}); re-run the campaign with this `ugc` build"
            ));
        }
        let participants = get_var(&mut buf, "params participants").map_err(err)?;
        let cheaters = get_var(&mut buf, "params cheaters").map_err(err)?;
        let n = get_var(&mut buf, "params n").map_err(err)?;
        let m = get_var(&mut buf, "params m").map_err(err)?;
        let seed = get_var(&mut buf, "params seed").map_err(err)?;
        let scheme = String::from_utf8(get_bytes(&mut buf, "params scheme").map_err(err)?)
            .map_err(|_| "campaign params blob: scheme name is not UTF-8".to_string())?;
        // A flag is 0 or 1: two blobs that decode alike are one blob.
        let mut flag = |context: &'static str| match get_var(&mut buf, context).map_err(err)? {
            flag @ (0 | 1) => Ok(flag == 1),
            other => Err(format!(
                "campaign params blob: {context} {other} is not 0 or 1"
            )),
        };
        let churn = flag("params churn flag")?;
        let chaos_seed = match flag("params chaos presence")? {
            false => None,
            true => Some(get_var(&mut buf, "params chaos seed").map_err(err)?),
        };
        if !buf.is_empty() {
            return Err(format!(
                "campaign params blob has {} trailing byte(s)",
                buf.len()
            ));
        }
        Ok(FleetParams {
            participants,
            cheaters,
            n,
            m,
            seed,
            scheme,
            transport: TransportKind::Direct,
            churn,
            chaos_seed,
        })
    }

    /// The one name → [`FleetScheme`] table: the scheme `ugc run` and
    /// `ugc fleet` call `name`, with `m` samples (or ringers) per member.
    ///
    /// # Errors
    ///
    /// An unknown scheme name, or `m` above [`MAX_SAMPLES`].
    pub fn fleet_scheme(name: &str, m: u64) -> Result<FleetScheme, String> {
        let m = usize::try_from(m)
            .ok()
            .filter(|_| m <= MAX_SAMPLES)
            .ok_or_else(|| format!("{m} samples per member: at most {MAX_SAMPLES}"))?;
        Ok(match name {
            "cbs" => FleetScheme::Cbs {
                samples: m,
                report_audit: 0,
            },
            "ni-cbs" => FleetScheme::NiCbs {
                samples: m,
                g_iterations: 1,
                report_audit: 0,
            },
            "naive" => FleetScheme::Naive { samples: m },
            "ringer" => FleetScheme::Ringer { ringers: m },
            "double-check" => FleetScheme::DoubleCheck,
            other => return Err(format!("unknown scheme {other:?}")),
        })
    }

    /// The seeded chaos plan, when the params ask for one.
    #[must_use]
    pub fn chaos(&self) -> Option<FaultPlan> {
        if self.chaos_seed.is_some() || self.churn {
            let mut plan = FaultPlan::chaos(self.chaos_seed.unwrap_or(1));
            if self.churn {
                plan = plan.with_churn(200);
            }
            Some(plan)
        } else {
            None
        }
    }
}

/// A [`FleetParams`] expansion: everything `run_mixed_fleet` needs on
/// the supervisor side, and everything a join process needs to build the
/// participant half of any slot. Both sides expanding the same params
/// must agree bit-for-bit — the derived scheme seeds, the cheater
/// roster, the hidden password — which is why the expansion lives here,
/// once, instead of being duplicated per process.
pub struct CampaignPlan {
    params: FleetParams,
    scheme: FleetScheme,
    task: PasswordSearch,
    screener: MatchScreener,
    honest: HonestWorker,
    cheater: SemiHonestCheater<ZeroGuesser>,
    schemes: Vec<Box<dyn VerificationScheme<Sha256>>>,
    participants: usize,
    cheaters: usize,
    domain: Domain,
}

impl CampaignPlan {
    /// Expands `params` into the runnable plan.
    ///
    /// # Errors
    ///
    /// Inconsistent params: more cheaters than participants, more
    /// participants than domain inputs or than [`MAX_FLEET_PARTICIPANTS`]
    /// or more samples than [`MAX_SAMPLES`] (all refused before anything
    /// is sized by the count), counts exceeding `usize`, an unknown scheme
    /// name, an empty domain.
    pub fn new(params: FleetParams) -> Result<Self, String> {
        if params.cheaters > params.participants {
            return Err("more cheaters than participants".into());
        }
        if params.participants > params.n.min(MAX_FLEET_PARTICIPANTS) {
            return Err(format!(
                "{} participants: at most one per domain input ({}) and \
                 {MAX_FLEET_PARTICIPANTS} per campaign",
                params.participants, params.n
            ));
        }
        let participants = usize::try_from(params.participants)
            .map_err(|_| "participant count exceeds this platform's usize".to_string())?;
        let cheaters = usize::try_from(params.cheaters)
            .map_err(|_| "cheater count exceeds this platform's usize".to_string())?;
        let scheme = FleetParams::fleet_scheme(&params.scheme, params.m)?;
        let seed = params.seed;
        let task = PasswordSearch::with_hidden_password(seed, params.n / 3);
        let screener = task.match_screener();
        let cheater = SemiHonestCheater::new(
            0.5,
            CheatSelection::Scattered,
            ZeroGuesser::new(seed ^ 0xf1ee),
            seed,
        );
        let schemes = scheme.instantiate_fleet::<Sha256>(seed, participants);
        let domain = Domain::try_new(0, params.n).map_err(|e| e.to_string())?;
        Ok(CampaignPlan {
            params,
            scheme,
            task,
            screener,
            honest: HonestWorker,
            cheater,
            schemes,
            participants,
            cheaters,
            domain,
        })
    }

    /// The params this plan expanded from.
    #[must_use]
    pub fn params(&self) -> &FleetParams {
        &self.params
    }

    /// The compute task every member evaluates.
    #[must_use]
    pub fn task(&self) -> &PasswordSearch {
        &self.task
    }

    /// The screener defining "results of interest".
    #[must_use]
    pub fn screener(&self) -> &MatchScreener {
        &self.screener
    }

    /// The full input domain (members get even shares of it).
    #[must_use]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Participant slots per member (2 for double-check, 1 otherwise).
    #[must_use]
    pub fn slots_per_member(&self) -> usize {
        self.scheme.slots()
    }

    /// Total participant slots across the fleet — the global-slot (and
    /// task-id) space of a full-fleet round.
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.participants * self.slots_per_member()
    }

    /// The fleet roster: one [`MemberSpec`] per member, the first
    /// `cheaters` of them running the semi-honest cheater on every slot.
    #[must_use]
    pub fn members(&self) -> Vec<MemberSpec<'_, Sha256>> {
        self.schemes
            .iter()
            .enumerate()
            .map(|(i, scheme)| MemberSpec {
                scheme: scheme.as_ref(),
                behaviours: vec![
                    if i < self.cheaters {
                        &self.cheater as &dyn WorkerBehaviour
                    } else {
                        &self.honest as &dyn WorkerBehaviour
                    };
                    self.slots_per_member()
                ],
            })
            .collect()
    }

    /// The per-session inactivity deadline `ugc fleet` arms on chaotic
    /// runs: a hang-guard, not a pace-setter — generous enough that a
    /// member legitimately spending its whole share evaluating `f` is
    /// never killed mid-compute.
    #[must_use]
    pub fn deadline(&self) -> Duration {
        Duration::from_secs(10)
            + Duration::from_micros(
                self.params
                    .n
                    .div_ceil(u64::try_from(self.participants.max(1)).unwrap_or(1))
                    .saturating_mul(2),
            )
    }

    /// The [`MixedFleetConfig`] for this campaign. `workers` (scheduler
    /// pool size; `None` is one per available core), `steal_seed` and
    /// `lanes` are execution-only knobs (scheduling and digest-kernel
    /// width, never digests); everything digest-relevant comes from the
    /// params.
    #[must_use]
    pub fn mixed_config(
        &self,
        workers: Option<usize>,
        steal_seed: u64,
        lanes: LaneWidth,
    ) -> MixedFleetConfig {
        let chaos = self.params.chaos();
        MixedFleetConfig {
            transport: self.params.transport,
            chaos,
            deadline: chaos.map(|_| self.deadline()),
            retries: if chaos.is_some() { 5 } else { 0 },
            storage: ParticipantStorage::Full,
            parallelism: Parallelism::default(),
            lanes,
            workers,
            steal_seed,
        }
    }

    /// Builds the participant-side state machine for one global slot —
    /// what a `ugc participant join` process runs when the broker hands
    /// it that slot's assignment. Task ids are the global slot counter
    /// (`run_fleet_round` numbers slots 0.. across the roster), so a
    /// join process can demultiplex purely by
    /// [`Message::task_id`](ugc_grid::Message::task_id).
    ///
    /// # Errors
    ///
    /// A slot outside this campaign's `0..total_slots()` space.
    pub fn participant_session(
        &self,
        global_slot: u64,
        ledger: CostLedger,
    ) -> Result<Box<dyn ParticipantSession + '_>, SchemeError> {
        let member = usize::try_from(global_slot / self.slots_per_member() as u64)
            .ok()
            .filter(|m| *m < self.participants)
            .ok_or_else(|| SchemeError::InvalidConfig {
                reason: format!(
                    "slot {global_slot} is outside this campaign's {} slot(s)",
                    self.total_slots()
                )
                .into(),
            })?;
        let behaviour: &dyn WorkerBehaviour = if member < self.cheaters {
            &self.cheater
        } else {
            &self.honest
        };
        Ok(
            self.schemes[member].participant_session(ParticipantContext {
                task: &self.task,
                screener: &self.screener,
                behaviour,
                storage: ParticipantStorage::Full,
                parallelism: Parallelism::default(),
                // A join process picks its own lane width locally; the
                // knob never affects digests, so default is always safe.
                lanes: LaneWidth::default(),
                ledger,
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FleetParams {
        FleetParams {
            participants: 3,
            cheaters: 1,
            n: 300,
            m: 10,
            seed: 7,
            scheme: "cbs".into(),
            transport: TransportKind::Brokered,
            churn: false,
            chaos_seed: None,
        }
    }

    #[test]
    fn params_roundtrip_all_transports() {
        // The transport is never encoded: every transport writes one blob,
        // which decodes to the params over the default transport.
        for chaos_seed in [None, Some(9)] {
            let p = |transport| FleetParams {
                transport,
                chaos_seed,
                churn: chaos_seed.is_some(),
                ..params()
            };
            let blob = p(TransportKind::Direct).encode();
            assert_eq!(
                FleetParams::decode(&blob).unwrap(),
                p(TransportKind::Direct)
            );
            for transport in [TransportKind::Brokered, TransportKind::Remote] {
                assert_eq!(p(transport).encode(), blob, "{transport:?}");
            }
        }
    }

    #[test]
    fn params_reject_foreign_version_and_trailing_bytes() {
        // Versions 1–3 opened with a fixed 8-byte version word.
        for version in [1u64, 2, 3] {
            let old = version.to_le_bytes();
            let err = FleetParams::decode(&old).unwrap_err();
            assert!(
                err.contains(&format!("version {version}")),
                "unhelpful error: {err}"
            );
        }

        let mut blob = params().encode();
        blob.push(0);
        let err = FleetParams::decode(&blob).unwrap_err();
        assert!(err.contains("trailing"), "unhelpful error: {err}");
    }

    /// `params()` with chaos, encoded with the flag at `from_end` one-byte
    /// integers before the blob's end set to 2.
    fn blob_with_flag_word_two(from_end: usize) -> Vec<u8> {
        let mut blob = FleetParams {
            chaos_seed: Some(9),
            churn: true,
            ..params()
        }
        .encode();
        let at = blob.len() - from_end;
        blob[at] = 2;
        blob
    }

    #[test]
    fn params_refuse_a_churn_flag_other_than_0_or_1() {
        // The blob ends churn flag, chaos presence, chaos seed (9).
        let err = FleetParams::decode(&blob_with_flag_word_two(3)).unwrap_err();
        assert!(err.contains("churn flag 2 is not 0 or 1"), "{err}");
    }

    #[test]
    fn params_refuse_a_chaos_presence_word_other_than_0_or_1() {
        let err = FleetParams::decode(&blob_with_flag_word_two(2)).unwrap_err();
        assert!(err.contains("chaos presence 2 is not 0 or 1"), "{err}");
    }

    #[test]
    fn plan_rejects_bad_rosters() {
        let p = FleetParams {
            cheaters: 4,
            ..params()
        };
        let err = CampaignPlan::new(p).err().expect("bad roster");
        assert!(err.contains("cheaters"), "unhelpful error: {err}");
        let p = FleetParams {
            scheme: "quantum".into(),
            ..params()
        };
        let err = CampaignPlan::new(p).err().expect("bad scheme");
        assert!(err.contains("unknown scheme"), "unhelpful error: {err}");
    }

    #[test]
    fn plan_refuses_a_hostile_participant_count_before_allocating() {
        // A well-formed blob, as a `Welcome` or a journal header carries
        // it, declaring 2^40 members, over a domain too small for them and
        // over one that is not: expanding either would allocate by that.
        for n in [300, u64::MAX] {
            let blob = FleetParams {
                participants: 1 << 40,
                n,
                ..params()
            }
            .encode();
            let hostile = FleetParams::decode(&blob).expect("the blob itself is well-formed");
            let err = CampaignPlan::new(hostile).err().expect("refused");
            assert!(err.contains("1099511627776 participants"), "{err}");
        }
        // The limit itself is a roster this build expands.
        let at_limit = FleetParams {
            participants: MAX_FLEET_PARTICIPANTS,
            n: MAX_FLEET_PARTICIPANTS,
            ..params()
        };
        assert!(CampaignPlan::new(at_limit).is_ok());
    }

    #[test]
    fn plan_refuses_a_hostile_sample_count_before_allocating() {
        // `m` sizes the challenge: 2^40 samples would be an 8 TiB draw.
        for scheme in ["cbs", "ni-cbs", "naive", "ringer", "double-check"] {
            let blob = FleetParams {
                m: 1 << 40,
                scheme: scheme.into(),
                ..params()
            }
            .encode();
            let hostile = FleetParams::decode(&blob).expect("the blob itself is well-formed");
            let err = CampaignPlan::new(hostile).err().expect("refused");
            assert!(err.contains("1099511627776 samples"), "{scheme}: {err}");
        }
        assert!(FleetParams::fleet_scheme("cbs", MAX_SAMPLES).is_ok());
    }

    #[test]
    fn double_check_doubles_the_slot_space() {
        let plan = CampaignPlan::new(FleetParams {
            scheme: "double-check".into(),
            ..params()
        })
        .unwrap();
        assert_eq!(plan.slots_per_member(), 2);
        assert_eq!(plan.total_slots(), 6);
        assert_eq!(plan.members()[0].behaviours.len(), 2);
        assert!(plan.participant_session(5, CostLedger::default()).is_ok());
        assert!(plan.participant_session(6, CostLedger::default()).is_err());
    }
}
