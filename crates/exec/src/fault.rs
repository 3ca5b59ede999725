//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultInjector`] is built from the `faults` list of an
//! `EngineConfig` (empty = disabled, the default — the hot-path cost is
//! one slice-emptiness check per site hit). The executor and operators
//! call [`FaultInjector::hit`] at the guarded pipeline sites
//! ([`FaultSite`]); when a configured fault's trigger matches, the
//! injector either returns `Error::FaultInjected`, sleeps (to make
//! timeout tests deterministic without huge datasets), or panics (to
//! exercise the worker panic-isolation path).
//!
//! Determinism: triggers are hit-count based (`Nth`) or driven by a
//! PRNG seeded from the config (`Seeded`), never by wall-clock or global
//! randomness, so a failing chaos run reproduces exactly.

use std::sync::atomic::{AtomicU64, Ordering};

use spinner_common::memory::SpillFaultHook;
use spinner_common::{
    CounterSet, EngineConfig, Error, FaultConfig, FaultKind, FaultSite, FaultTrigger, Result,
};

/// Runtime state for one configured fault.
#[derive(Debug)]
struct PlanState {
    cfg: FaultConfig,
    /// Times this site has been hit (for `Nth` triggers).
    hits: AtomicU64,
    /// PRNG state (for `Seeded` triggers); advanced atomically per hit.
    rng: AtomicU64,
}

/// Checks pipeline sites against the configured fault plans.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plans: Vec<PlanState>,
    /// Fired faults. The injector is engine-wide and its sites include
    /// ones no statement owns (spill I/O, the server's accept loop), so
    /// it counts for itself and the engine folds the count into the
    /// statement that finishes next.
    counters: CounterSet,
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

impl FaultInjector {
    /// An injector that never fires (no configured faults).
    pub fn disabled() -> Self {
        FaultInjector::default()
    }

    /// Build from the `faults` list of a config.
    pub fn from_config(config: &EngineConfig) -> Self {
        FaultInjector {
            plans: config
                .faults
                .iter()
                .map(|cfg| PlanState {
                    cfg: cfg.clone(),
                    hits: AtomicU64::new(0),
                    rng: AtomicU64::new(match cfg.trigger {
                        FaultTrigger::Seeded { seed, .. } => splitmix(seed),
                        FaultTrigger::Nth(_) => 0,
                    }),
                })
                .collect(),
            counters: CounterSet::new(),
        }
    }

    /// Whether any fault plans are configured.
    pub fn is_enabled(&self) -> bool {
        !self.plans.is_empty()
    }

    /// The injector's own counters (only `faults_injected` ever moves).
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Record a hit of `site`; fires the configured fault when its
    /// trigger matches. A fired fault is counted and then errors, sleeps
    /// or panics according to its kind.
    pub fn hit(&self, site: FaultSite) -> Result<()> {
        if self.plans.is_empty() {
            return Ok(());
        }
        for plan in &self.plans {
            if plan.cfg.site != site {
                continue;
            }
            let fire = match plan.cfg.trigger {
                FaultTrigger::Nth(n) => plan.hits.fetch_add(1, Ordering::Relaxed) + 1 == n,
                FaultTrigger::Seeded {
                    probability_ppm, ..
                } => {
                    let draw = plan
                        .rng
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(xorshift(s)))
                        .map(xorshift)
                        .unwrap_or(0);
                    // Widening multiply keeps the draw uniform in
                    // [0, 1_000_000) without modulo bias.
                    let bucket = ((u128::from(draw) * 1_000_000u128) >> 64) as u64;
                    bucket < u64::from(probability_ppm)
                }
            };
            if fire {
                self.counters.faults_injected.add(1);
                match plan.cfg.kind {
                    FaultKind::Error => {
                        return Err(Error::FaultInjected {
                            site: site.name().to_string(),
                        });
                    }
                    FaultKind::DelayMs(ms) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    FaultKind::Panic => {
                        panic!("injected panic at {}", site.name());
                    }
                    FaultKind::Abort => {
                        // SIGKILL-equivalent: no unwinding, no destructors,
                        // no atexit — spill/journal files stay on disk
                        // exactly as a hard crash would leave them.
                        std::process::abort();
                    }
                }
            }
        }
        Ok(())
    }
}

/// The storage layer's spill manager fires `SpillWrite`/`SpillRead` and
/// the disk-fault sites through this hook; storage cannot depend on this
/// crate, so it only sees the trait.
impl SpillFaultHook for FaultInjector {
    fn hit(&self, site: FaultSite) -> Result<()> {
        FaultInjector::hit(self, site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::FaultConfig;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        for _ in 0..1000 {
            assert!(inj.hit(FaultSite::Exchange).is_ok());
        }
        assert_eq!(inj.counters().snapshot().faults_injected, 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let config =
            EngineConfig::default().with_fault(FaultConfig::fail_nth(FaultSite::Materialize, 3));
        let inj = FaultInjector::from_config(&config);
        assert!(inj.hit(FaultSite::Materialize).is_ok());
        assert!(inj.hit(FaultSite::Materialize).is_ok());
        let err = inj.hit(FaultSite::Materialize).unwrap_err();
        assert_eq!(
            err,
            Error::FaultInjected {
                site: "materialize".into()
            }
        );
        // Past the n-th hit, it never fires again.
        for _ in 0..10 {
            assert!(inj.hit(FaultSite::Materialize).is_ok());
        }
        assert_eq!(inj.counters().snapshot().faults_injected, 1);
    }

    #[test]
    fn sites_are_independent() {
        let config =
            EngineConfig::default().with_fault(FaultConfig::fail_nth(FaultSite::Rename, 1));
        let inj = FaultInjector::from_config(&config);
        assert!(inj.hit(FaultSite::Exchange).is_ok());
        assert!(inj.hit(FaultSite::LoopIteration).is_ok());
        assert!(inj.hit(FaultSite::Rename).is_err());
    }

    #[test]
    fn seeded_trigger_is_deterministic_and_calibrated() {
        let config = EngineConfig::default().with_fault(FaultConfig::seeded(
            FaultSite::Exchange,
            FaultKind::Error,
            42,
            500_000, // 50%
        ));
        let run = || {
            let inj = FaultInjector::from_config(&config);
            (0..64)
                .map(|_| inj.hit(FaultSite::Exchange).is_err())
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce the same fault pattern");
        let fired = a.iter().filter(|&&x| x).count();
        assert!((10..=54).contains(&fired), "50% of 64 hits, got {fired}");
    }

    #[test]
    fn always_seeded_fires_every_hit() {
        let config = EngineConfig::default().with_fault(FaultConfig::seeded(
            FaultSite::LoopIteration,
            FaultKind::Error,
            7,
            1_000_000,
        ));
        let inj = FaultInjector::from_config(&config);
        for _ in 0..16 {
            assert!(inj.hit(FaultSite::LoopIteration).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "injected panic at worker")]
    fn panic_kind_panics() {
        let config =
            EngineConfig::default().with_fault(FaultConfig::panic_nth(FaultSite::Worker, 1));
        let inj = FaultInjector::from_config(&config);
        let _ = inj.hit(FaultSite::Worker);
    }
}
