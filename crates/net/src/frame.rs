//! The network frame: the message currency of the whole simulation.

use crate::payload::IpPacket;

/// A source route: the output port to take at each successive switch.
///
/// DIABLO simplifies packet routing to source routing (§3.3, "Use simplified
/// source routing"): WSC topologies change rarely, flow tables are large
/// enough that lookups take constant time, and several WSC switch proposals
/// use source routing natively. Routes are computed once per (src, dst) pair
/// by the [topology](crate::topology) and stamped on each frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route(Vec<u16>);

impl Route {
    /// An empty route (same-node delivery; never traverses a switch).
    pub const fn empty() -> Self {
        Route(Vec::new())
    }

    /// Creates a route from the output ports at each hop.
    pub fn new(ports: Vec<u16>) -> Self {
        Route(ports)
    }

    /// Output port at switch hop `hop`, if within the route.
    pub fn port_at(&self, hop: u8) -> Option<u16> {
        self.0.get(hop as usize).copied()
    }

    /// Number of switch hops.
    pub fn hops(&self) -> usize {
        self.0.len()
    }

    /// Raw port list.
    pub fn ports(&self) -> &[u16] {
        &self.0
    }
}

impl From<Vec<u16>> for Route {
    fn from(v: Vec<u16>) -> Self {
        Route(v)
    }
}

/// An Ethernet-level frame in flight: an IP packet plus its source route and
/// current hop index.
///
/// # Examples
///
/// ```
/// use diablo_net::frame::{Frame, Route};
/// use diablo_net::payload::{AppMessage, IpPacket, UdpDatagram};
/// use diablo_net::addr::NodeAddr;
/// use diablo_engine::time::SimTime;
///
/// let dgram = UdpDatagram { src_port: 1, dst_port: 2,
///     msg: AppMessage::new(0, 1, 100, SimTime::ZERO) };
/// let frame = Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), dgram),
///     Route::new(vec![3]));
/// assert_eq!(frame.wire_bytes(), 166);
/// assert_eq!(frame.route.port_at(0), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The carried IP packet.
    pub packet: IpPacket,
    /// Pre-computed source route.
    pub route: Route,
    /// Index of the next switch hop (incremented by each switch).
    pub hop: u8,
}

impl Frame {
    /// Creates a frame at hop zero.
    pub fn new(packet: IpPacket, route: Route) -> Self {
        Frame { packet, route, hop: 0 }
    }

    /// On-wire bytes (including Ethernet overhead and minimum frame size).
    pub fn wire_bytes(&self) -> u32 {
        self.packet.wire_bytes()
    }
}

diablo_engine::impl_snap_struct!(Route { 0 });

diablo_engine::impl_snap_struct!(Frame { packet, route, hop });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeAddr;
    use crate::payload::{AppMessage, UdpDatagram};
    use diablo_engine::time::SimTime;

    #[test]
    fn route_navigation() {
        let r = Route::new(vec![7, 1, 4]);
        assert_eq!(r.hops(), 3);
        assert_eq!(r.port_at(0), Some(7));
        assert_eq!(r.port_at(2), Some(4));
        assert_eq!(r.port_at(3), None);
        assert_eq!(Route::empty().hops(), 0);
        assert_eq!(Route::from(vec![1u16]).ports(), &[1]);
    }

    #[test]
    fn frame_starts_at_hop_zero() {
        let dgram =
            UdpDatagram { src_port: 1, dst_port: 2, msg: AppMessage::new(0, 1, 10, SimTime::ZERO) };
        let f = Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), dgram), Route::empty());
        assert_eq!(f.hop, 0);
    }
}
