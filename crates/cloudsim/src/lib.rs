//! # spotcheck-cloudsim
//!
//! A discrete-event simulator of a native IaaS platform (EC2 circa
//! 2014-2015), built as the substrate SpotCheck runs on. It provides
//! exactly the interfaces the paper's system consumes:
//!
//! - per-(type, zone) **spot markets** driven by price traces, with
//!   bid-based revocation and the 120-second termination warning;
//! - **on-demand** instances with fixed pricing (and optional, rare
//!   stockouts);
//! - instance lifecycle whose control-plane latencies are sampled from
//!   distributions calibrated to the paper's **Table 1** measurements;
//! - **EBS volumes** and **VPC/ENI private IPs** that can be detached from
//!   a dying host and reattached at a migration destination;
//! - **billing** in both continuous and 2014-EC2 hourly modes, with cost
//!   reports served through an exact incremental ledger.
//!
//! The simulator is passive and deterministic: methods take the current
//! time, asynchronous operations return completion instants for the driver
//! to schedule, and all randomness flows from the configured seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod cloud;
pub mod error;
pub mod faults;
pub mod ids;
pub mod instance;
pub mod latency;
mod ledger;
pub mod storage;
pub mod types;

pub use billing::BillingMode;
pub use cloud::{CloudConfig, CloudSim, Notification, RevocationWarning};
pub use error::CloudError;
pub use faults::{FaultEvent, FaultImpact, FaultPlan};
pub use ids::{EniId, InstanceId, OpId, PrivateIp, VolumeId};
pub use instance::{Contract, Instance, InstanceState};
pub use latency::{CloudOp, LatencyModel};
pub use storage::{AttachState, Eni, SubnetId, Volume, Vpc};
pub use types::{instance_catalog, spec_for, InstanceSpec};
