//! Native VM instances and their lifecycle.

use spotcheck_simcore::time::SimTime;
use spotcheck_spotmarket::market::{MarketId, ZoneName};

use crate::ids::{EniId, InstanceId, VolumeId};
use crate::types::InstanceSpec;

/// The purchase contract of an instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Contract {
    /// Non-revocable, fixed $/hr.
    OnDemand,
    /// Revocable; runs while the market price stays at or below `bid`.
    Spot {
        /// Maximum $/hr the buyer will pay.
        bid: f64,
    },
}

impl Contract {
    /// Returns true for spot contracts.
    pub fn is_spot(&self) -> bool {
        matches!(self, Contract::Spot { .. })
    }

    /// Returns the bid for spot contracts.
    pub fn bid(&self) -> Option<f64> {
        match self {
            Contract::Spot { bid } => Some(*bid),
            Contract::OnDemand => None,
        }
    }
}

/// Lifecycle state of a native instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstanceState {
    /// Start requested; boot in progress.
    Pending,
    /// Running normally.
    Running,
    /// A revocation warning was issued; the platform will forcibly
    /// terminate the instance at `terminate_at`.
    RevocationPending {
        /// Forced-termination deadline.
        terminate_at: SimTime,
    },
    /// A user-initiated terminate is in progress.
    ShuttingDown,
    /// Terminated (whether gracefully or by revocation).
    Terminated,
}

/// A native VM instance rented from the IaaS platform.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance id.
    pub id: InstanceId,
    /// Static type description.
    pub spec: InstanceSpec,
    /// Availability zone.
    pub zone: ZoneName,
    /// Purchase contract.
    pub contract: Contract,
    /// Lifecycle state.
    pub state: InstanceState,
    /// When the start was requested.
    pub requested_at: SimTime,
    /// When the instance entered `Running`, if it has.
    pub started_at: Option<SimTime>,
    /// When the instance terminated, if it has.
    pub terminated_at: Option<SimTime>,
    /// True if termination was a platform revocation (vs. user-initiated).
    pub revoked: bool,
    /// Attached network interfaces.
    pub enis: Vec<EniId>,
    /// Attached EBS volumes.
    pub volumes: Vec<VolumeId>,
}

impl Instance {
    /// Returns the spot market this instance buys from, if it is a spot
    /// instance.
    pub fn market(&self) -> Option<MarketId> {
        if self.contract.is_spot() {
            Some(MarketId::new(
                self.spec.type_name.as_str(),
                self.zone.as_str(),
            ))
        } else {
            None
        }
    }

    /// Returns true if this is a spot instance buying from `market`.
    /// Unlike comparing against [`Instance::market`], this builds no
    /// `MarketId`, so hot sweeps over running instances allocate nothing.
    pub fn in_market(&self, market: &MarketId) -> bool {
        self.contract.is_spot()
            && self.spec.type_name == market.type_name
            && self.zone == market.zone
    }

    /// Returns true if the instance is in a state where it can host work
    /// (running, possibly under a revocation warning).
    pub fn is_usable(&self) -> bool {
        matches!(
            self.state,
            InstanceState::Running | InstanceState::RevocationPending { .. }
        )
    }

    /// Returns true if the instance has fully terminated.
    pub fn is_terminated(&self) -> bool {
        matches!(self.state, InstanceState::Terminated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::spec_for;

    fn instance(contract: Contract) -> Instance {
        Instance {
            id: InstanceId(1),
            spec: spec_for("m3.medium").unwrap(),
            zone: ZoneName::new("us-east-1a"),
            contract,
            state: InstanceState::Running,
            requested_at: SimTime::ZERO,
            started_at: Some(SimTime::from_secs(60)),
            terminated_at: None,
            revoked: false,
            enis: Vec::new(),
            volumes: Vec::new(),
        }
    }

    #[test]
    fn spot_instance_has_market() {
        let i = instance(Contract::Spot { bid: 0.07 });
        assert_eq!(
            i.market(),
            Some(MarketId::new("m3.medium", "us-east-1a"))
        );
        assert_eq!(i.contract.bid(), Some(0.07));
        assert!(i.in_market(&MarketId::new("m3.medium", "us-east-1a")));
        assert!(!i.in_market(&MarketId::new("m3.medium", "us-east-1b")));
        assert!(!i.in_market(&MarketId::new("m3.large", "us-east-1a")));
    }

    #[test]
    fn on_demand_instance_has_no_market() {
        let i = instance(Contract::OnDemand);
        assert_eq!(i.market(), None);
        assert!(!i.contract.is_spot());
        assert_eq!(i.contract.bid(), None);
        assert!(!i.in_market(&MarketId::new("m3.medium", "us-east-1a")));
    }

    #[test]
    fn usability_by_state() {
        let mut i = instance(Contract::OnDemand);
        assert!(i.is_usable());
        i.state = InstanceState::RevocationPending {
            terminate_at: SimTime::from_secs(120),
        };
        assert!(i.is_usable());
        i.state = InstanceState::Pending;
        assert!(!i.is_usable());
        i.state = InstanceState::Terminated;
        assert!(i.is_terminated());
    }
}
