//! Per-layer work counts read from a run's final metric scrape.
//!
//! The scrape names every component hierarchically: servers are
//! `rack{r}.server{s}.…` (their NIC under `nic.`, the kernel under
//! `kernel.`), switches are `rack{r}.tor.…`, `array{a}.…`, `datacenter.…`
//! (or `agg{i}.…` / `core{i}.…` on a fat-tree). These counts are simulated
//! work: a change that only speeds the simulator up leaves every one of
//! them identical.

use diablo_engine::metrics::{MetricValue, MetricsRegistry};

/// Simulated work per layer, summed over the cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Metrics in the scrape.
    pub scrape_metrics: u64,
    /// Guest system calls (`stack`).
    pub syscalls: u64,
    /// Scheduler context switches (`stack`).
    pub context_switches: u64,
    /// Softirq passes (`stack`).
    pub softirq_runs: u64,
    /// UDP datagrams dropped at a full socket (`stack`).
    pub udp_rcv_drops: u64,
    /// TCP segments sent (`stack`).
    pub tcp_segs_out: u64,
    /// TCP retransmissions (`stack`).
    pub tcp_retransmits: u64,
    /// TCP retransmission timeouts (`stack`).
    pub tcp_rtos: u64,
    /// Frames NICs put on the wire (`nic`).
    pub nic_tx_frames: u64,
    /// Frames NICs accepted into the RX ring (`nic`).
    pub nic_rx_frames: u64,
    /// NIC interrupts raised (`nic`).
    pub nic_interrupts: u64,
    /// Frames dropped at a full RX ring (`nic`).
    pub nic_rx_ring_drops: u64,
    /// Frames switches sent (`net`).
    pub switch_tx_frames: u64,
    /// Frames switches dropped at a full buffer (`net`).
    pub switch_drops_buffer: u64,
    /// Largest buffer occupancy any switch reached, in bytes (`net`).
    pub max_buffered_bytes: u64,
    /// Simulated CPU busy time over all servers, in picoseconds (`node`).
    pub cpu_busy_ps: u64,
}

/// Which device a scraped metric belongs to, and its device-local name.
enum Device<'a> {
    Server(&'a str),
    Switch(&'a str),
    Other,
}

fn classify(name: &str) -> Device<'_> {
    let mut parts = name.splitn(3, '.');
    let (Some(first), Some(second)) = (parts.next(), parts.next()) else {
        return Device::Other;
    };
    let rest = parts.next();
    let after = |n: usize| &name[n..];
    if first.starts_with("rack") && second.starts_with("server") {
        rest.map_or(Device::Other, Device::Server)
    } else if first.starts_with("rack") && second == "tor" {
        rest.map_or(Device::Other, Device::Switch)
    } else if first == "datacenter"
        || ["array", "agg", "core"]
            .iter()
            .any(|p| first.strip_prefix(p).is_some_and(|i| i.parse::<u32>().is_ok()))
    {
        Device::Switch(after(first.len() + 1))
    } else {
        Device::Other
    }
}

impl LayerCounts {
    /// Sums the per-layer counts out of a final scrape.
    pub fn from_scrape(reg: &MetricsRegistry) -> Self {
        let mut c = LayerCounts { scrape_metrics: reg.len() as u64, ..Default::default() };
        for (name, value) in reg.iter() {
            let MetricValue::Counter(v) = *value else { continue };
            match classify(name) {
                Device::Server(m) => {
                    let slot = match m {
                        "kernel.syscalls" => &mut c.syscalls,
                        "kernel.context_switches" => &mut c.context_switches,
                        "kernel.softirq_runs" => &mut c.softirq_runs,
                        "kernel.udp_rcv_drops" => &mut c.udp_rcv_drops,
                        "kernel.tcp.segs_out" => &mut c.tcp_segs_out,
                        "kernel.tcp.retransmits" => &mut c.tcp_retransmits,
                        "kernel.tcp.rtos" => &mut c.tcp_rtos,
                        "kernel.cpu_busy_ps" => &mut c.cpu_busy_ps,
                        "nic.tx_frames" => &mut c.nic_tx_frames,
                        "nic.rx_frames" => &mut c.nic_rx_frames,
                        "nic.interrupts" => &mut c.nic_interrupts,
                        "nic.rx_ring_drops" => &mut c.nic_rx_ring_drops,
                        _ => continue,
                    };
                    *slot = slot.saturating_add(v);
                }
                Device::Switch("tx_frames") => c.switch_tx_frames += v,
                Device::Switch("drops_buffer") => c.switch_drops_buffer += v,
                Device::Switch("max_buffered_bytes") => {
                    c.max_buffered_bytes = c.max_buffered_bytes.max(v);
                }
                Device::Switch(_) | Device::Other => {}
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_servers_and_every_switch_level() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("rack0.server3.nic.tx_frames", 5);
        reg.set_counter("rack1.server0.nic.tx_frames", 2);
        reg.set_counter("rack0.server3.kernel.tcp.rtos", 1);
        reg.set_counter("rack0.tor.tx_frames", 7);
        reg.set_counter("rack0.tor.port2.tx_frames", 100);
        reg.set_counter("array0.tx_frames", 11);
        reg.set_counter("array0.port1.tx_frames", 100);
        reg.set_counter("datacenter.tx_frames", 13);
        reg.set_counter("rack0.tor.max_buffered_bytes", 40);
        reg.set_counter("array0.max_buffered_bytes", 90);
        let c = LayerCounts::from_scrape(&reg);
        assert_eq!(c.nic_tx_frames, 7);
        assert_eq!(c.tcp_rtos, 1);
        assert_eq!(c.switch_tx_frames, 7 + 11 + 13, "per-port counters are not double-counted");
        assert_eq!(c.max_buffered_bytes, 90);
        assert_eq!(c.scrape_metrics, 10);
    }
}
