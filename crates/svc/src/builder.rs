//! Service construction with injectable policies.

use kairos_admitd::{AdmitPolicy, Admitd, PreemptionPolicy, VictimOrder};
use kairos_core::{CacheConfig, CostPolicy, CostWeights, Kairos, KairosConfig};
use kairos_platform::Platform;
use kairos_telemetry::Telemetry;

use crate::service::KairosService;

/// Builds a [`KairosService`], injecting the policies that shape its
/// decisions at construction time:
///
/// * the **cost policy** of the mapping phase ([`ServiceBuilder::cost_policy`]
///   / [`ServiceBuilder::weights`], or a whole [`KairosConfig`]);
/// * the **admission policy** ([`ServiceBuilder::admission`]): every
///   request passes the `kairos-admitd` front-end's door; without a
///   policy the door admits or rejects immediately (the paper's
///   behaviour), with one requests queue with backpressure, retry and
///   timeouts;
/// * the **preemption policy** and **victim ordering**
///   ([`ServiceBuilder::preemption`], [`ServiceBuilder::victim_order`]):
///   how blocked criticals may relocate running lower-priority work.
///
/// # Examples
///
/// ```
/// use kairos_svc::ServiceBuilder;
/// use kairos_admitd::{PreemptionPolicy, VictimOrder};
/// use kairos_platform::topology;
///
/// let service = ServiceBuilder::new(topology::crisp())
///     .deterministic(true)
///     .preemption(PreemptionPolicy::Migrate)
///     .victim_order(VictimOrder::SmallestFirst)
///     .build()?;
/// assert!(service.admitd().policy().is_some(), "preemption implies an admission queue");
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    platform: Platform,
    config: KairosConfig,
    admission: Option<AdmitPolicy>,
    telemetry: Telemetry,
}

impl ServiceBuilder {
    /// A builder for a service managing `platform`, with the default
    /// manager configuration, no admission queue and telemetry disabled.
    pub fn new(platform: Platform) -> Self {
        ServiceBuilder {
            platform,
            config: KairosConfig::default(),
            admission: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Replaces the whole manager configuration.
    pub fn config(mut self, config: KairosConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the mapping phase's cost policy (communication, fragmentation
    /// or both — paper §III).
    pub fn cost_policy(mut self, policy: CostPolicy) -> Self {
        self.config.weights = policy.weights();
        self
    }

    /// Sets explicit mapping cost weights.
    pub fn weights(mut self, weights: CostWeights) -> Self {
        self.config.weights = weights;
        self
    }

    /// Runs the pipeline on the zero phase clock
    /// ([`KairosConfig::deterministic`]): all recorded timings are zero,
    /// so service output is a pure function of its inputs.
    pub fn deterministic(mut self, deterministic: bool) -> Self {
        self.config.deterministic = deterministic;
        self
    }

    /// Enables the design-time operating-point cache
    /// ([`KairosConfig::cache`]): pipeline decisions
    /// are stored per `(application shape, platform state)` key and
    /// replayed in O(claims) when the identical question recurs. The
    /// cache changes which work runs, never what is decided; its
    /// lifetime counters surface through
    /// [`crate::ResourceService::cache_stats`].
    pub fn mapping_cache(mut self, config: CacheConfig) -> Self {
        self.config.cache = Some(config);
        self
    }

    /// Gives the `kairos-admitd` front-end a priority queue under
    /// `policy`. Without this (or one of the preemption knobs below) its
    /// door admits on the spot and rejects when full.
    pub fn admission(mut self, policy: AdmitPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Sets the preemption policy for blocked critical requests.
    /// Preemption is a front-end feature, so this implies an admission
    /// queue (the default [`AdmitPolicy`] when none was set yet).
    pub fn preemption(mut self, policy: PreemptionPolicy) -> Self {
        self.admission.get_or_insert_with(AdmitPolicy::default).preemption = policy;
        self
    }

    /// Sets the victim ordering preemption candidates are offered in.
    /// Implies an admission queue, like [`ServiceBuilder::preemption`].
    pub fn victim_order(mut self, order: VictimOrder) -> Self {
        self.admission.get_or_insert_with(AdmitPolicy::default).victim_order = order;
        self
    }

    /// Bounds the victims one relocation may displace. Implies an
    /// admission queue, like [`ServiceBuilder::preemption`].
    pub fn max_victims(mut self, max_victims: usize) -> Self {
        self.admission.get_or_insert_with(AdmitPolicy::default).max_victims = max_victims;
        self
    }

    /// Attaches an observability hub ([`kairos_telemetry::Telemetry`]) to
    /// the built service: the `kairos.svc.*`, `kairos.admitd.*` and
    /// `kairos.core.*` metrics all land in its registry and spans reach
    /// its flight recorder. The default is a disabled handle, which costs
    /// one pointer test per instrumented operation.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the service.
    ///
    /// # Errors
    ///
    /// The admission policy's [`AdmitPolicy::validate`] error, if any.
    pub fn build(self) -> Result<KairosService, String> {
        let mut kairos = Kairos::new(self.platform, self.config);
        // The hub goes onto the manager once; every wrapper built over it
        // below resolves its own instruments from there.
        if self.telemetry.enabled() {
            kairos.set_telemetry(self.telemetry);
        }
        if let Some(policy) = &self.admission {
            policy.validate()?;
        }
        Ok(KairosService::new(Admitd::new(kairos, self.admission)))
    }
}
