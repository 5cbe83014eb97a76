//! One-shot bandwidth measurement, standing in for `netperf`.
//!
//! The paper measures a PS node's available network bandwidth "only once
//! using the netperf tool" (Sec. 3). Here we run a short fluid-simulated
//! bulk transfer against the instance's NIC and report the achieved rate —
//! trivially equal to the catalog bandwidth for an idle NIC, but the
//! function accepts background load so tests can exercise a contended
//! measurement (which is what netperf would actually observe).

use crate::instance::InstanceType;
use cynthia_sim::fluid::{FlowSpec, FluidSystem};

/// Measures the bandwidth (MB/s) a new bulk flow achieves on the given
/// instance's NIC while `background_flows` long-running flows compete.
///
/// With no background load this equals the instance's full NIC bandwidth,
/// matching a quiescent netperf run.
pub fn measure_bandwidth(ty: &InstanceType, background_flows: usize) -> f64 {
    let mut sys = FluidSystem::new();
    let nic = sys.add_resource(ty.nic_mbps, format!("{}-nic", ty.name));
    // Background flows outlast the probe: the largest finite volume (a
    // flow's volume must be finite).
    for i in 0..background_flows {
        sys.start_flow(FlowSpec::new(vec![nic], f64::MAX, i as u64));
    }
    // 10 MB probe, the default netperf TCP_STREAM style bulk transfer.
    let probe = sys.start_flow(FlowSpec::new(vec![nic], 10.0, u64::MAX));
    sys.flow_rate(probe)
        .expect("probe flow must exist immediately after start")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::default_catalog;

    #[test]
    fn idle_nic_reports_catalog_bandwidth() {
        let cat = default_catalog();
        for t in cat.types() {
            let bw = measure_bandwidth(t, 0);
            assert!(
                (bw - t.nic_mbps).abs() < 1e-9,
                "{}: measured {bw}, catalog {}",
                t.name,
                t.nic_mbps
            );
        }
    }

    #[test]
    fn contended_nic_reports_fair_share() {
        let cat = default_catalog();
        let m4 = cat.expect("m4.xlarge");
        let bw = measure_bandwidth(m4, 1);
        assert!((bw - m4.nic_mbps / 2.0).abs() < 1e-9);
        let bw = measure_bandwidth(m4, 3);
        assert!((bw - m4.nic_mbps / 4.0).abs() < 1e-9);
    }
}
