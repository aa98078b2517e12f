//! Service construction with injectable policies.

use kairos_core::{Kairos, KairosConfig};
use kairos_platform::Platform;
use kairos_telemetry::Telemetry;

use crate::frontend::Admitd;
use crate::policy::AdmitPolicy;

/// Builds an [`Admitd`] service, injecting the policies that shape its
/// decisions at construction time, one setter per value:
///
/// * the **manager configuration** ([`ServiceBuilder::config`]): the
///   mapping phase's cost weights, the operating-point cache, validation;
/// * the **admission policy** ([`ServiceBuilder::admission`]): every
///   request passes the front-end's door; without a policy the door
///   admits or rejects immediately (the paper's behaviour), with one
///   requests queue with backpressure, retry, timeouts and — under its
///   [`AdmitPolicy::preemption`] — relocation of lower-priority work for
///   blocked criticals.
///
/// # Examples
///
/// ```
/// use kairos_admitd::{AdmitPolicy, PreemptionPolicy, ServiceBuilder};
/// use kairos_platform::topology;
///
/// let service = ServiceBuilder::new(topology::crisp())
///     .deterministic(true)
///     .admission(AdmitPolicy {
///         preemption: PreemptionPolicy::Migrate,
///         ..AdmitPolicy::default()
///     })
///     .build()?;
/// assert_eq!(service.policy().map(|p| p.preemption), Some(PreemptionPolicy::Migrate));
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

    /// Runs the pipeline on the zero phase clock
    /// ([`KairosConfig::deterministic`]): all recorded timings are zero,
    /// so service output is a pure function of its inputs.
    pub fn deterministic(mut self, deterministic: bool) -> Self {
        self.config.deterministic = deterministic;
        self
    }

    /// Gives the front-end a priority queue under `policy`. Without this
    /// its door admits on the spot and rejects when full.
    pub fn admission(mut self, policy: AdmitPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Attaches an observability hub ([`kairos_telemetry::Telemetry`]) to
    /// the built service: the `kairos.svc.*`, `kairos.admitd.*`,
    /// `kairos.reloc.*` and `kairos.core.*` metrics all land in its
    /// registry, and traced requests record into its trace sink. The
    /// default is a disabled handle, which costs one pointer test per
    /// instrumented operation.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the service.
    ///
    /// # Errors
    ///
    /// The admission policy's [`AdmitPolicy::validate`] error, if any.
    pub fn build(self) -> Result<Admitd, String> {
        let mut kairos = Kairos::new(self.platform, self.config);
        // The hub goes onto the manager once; the front-end built over it
        // resolves its own instruments from there.
        if self.telemetry.enabled() {
            kairos.set_telemetry(self.telemetry);
        }
        Admitd::new(kairos, self.admission)
    }
}
