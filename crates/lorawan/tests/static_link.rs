//! A transmission's loss split into a static link and its fading is the
//! one-expression loss bit for bit.
//!
//! The oracle is the whole-transmission formula the radio simulator
//! evaluated per (transmission, gateway) before it cached static links:
//! `mean_path_loss_db(d) + link_shadowing_db + fading_db − height_gain`,
//! summed left to right. Every radio byte in `results/` rests on this
//! equality.

use ctt_core::geo::LatLon;
use ctt_lorawan::PathLossModel;
use proptest::prelude::*;

/// The pre-split loss of one transmission, written out.
fn whole_loss_db(m: &PathLossModel, node: LatLon, gw: LatLon, antenna_m: f64, nonce: u64) -> f64 {
    let height_gain = 6.0 * (antenna_m.max(1.0) / 15.0).log2().clamp(0.0, 1.5);
    m.mean_path_loss_db(node.distance_m(gw))
        + m.link_shadowing_db(node, gw)
        + m.fading_db(node, gw, nonce)
        - height_gain
}

proptest! {
    #[test]
    fn loss_on_a_static_link_is_the_whole_loss_bit_for_bit(
        keys in (any::<u64>(), any::<u64>()),
        gw in (-60.0f64..70.0, -20.0f64..30.0),
        node in (0.0f64..360.0, 0.0f64..20_000.0),
        antenna_m in 0.0f64..80.0,
    ) {
        let (seed, nonce) = keys;
        let m = PathLossModel::urban(seed);
        let gateway = LatLon::new(gw.0, gw.1);
        // A bearing and a distance from the gateway, out to 20 km.
        let node = gateway.offset(node.0, node.1);
        let link = m.static_link(node, gateway, antenna_m);
        for n in [nonce, nonce.wrapping_add(1), 1] {
            prop_assert_eq!(
                m.loss_on(&link, n).to_bits(),
                whole_loss_db(&m, node, gateway, antenna_m, n).to_bits()
            );
        }
    }
}
