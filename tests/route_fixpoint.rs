//! Slow oracle for policy routing: a naive per-AS BGP decision process
//! iterated to a fixpoint, checked against the three-wave
//! [`RoutingOracle::routes_to`].
//!
//! Every AS repeatedly takes the best route its neighbours export to
//! it, until no AS changes its choice. Preference is customer > peer >
//! provider, then the shorter AS path, then the lower neighbour id; a
//! route through the deciding AS itself is rejected (BGP loop
//! detection). Export is valley-free: an AS passes customer-learned
//! routes (and its own prefix) to everyone, and peer- or
//! provider-learned routes only to its customers.

use opeer::topology::{AsId, RouteKind, RoutingOracle, World, WorldConfig};

/// A route held by the fixpoint: its class and the AS path from the
/// next hop to the destination (empty at the destination itself).
#[derive(Debug, Clone, PartialEq)]
struct Route {
    kind: RouteKind,
    path: Vec<AsId>,
}

/// Rounds after which the decision process must have converged (far
/// above the AS-path lengths of the small worlds).
const MAX_ROUNDS: usize = 64;

fn fixpoint(world: &World, oracle: &RoutingOracle, dst: AsId) -> Vec<Option<Route>> {
    let mut best: Vec<Option<Route>> = vec![None; world.ases.len()];
    best[dst.index()] = Some(Route {
        kind: RouteKind::Customer,
        path: Vec::new(),
    });
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for a in (0..world.ases.len()).map(AsId::from_index) {
            if a == dst {
                continue;
            }
            // (class of the route at `a`, neighbour offering it).
            let offers = world
                .customers_of(a)
                .iter()
                .map(|&c| (RouteKind::Customer, c))
                .chain(oracle.peers_of(a).iter().map(|&p| (RouteKind::Peer, p)))
                .chain(
                    world
                        .providers_of(a)
                        .iter()
                        .map(|&q| (RouteKind::Provider, q)),
                );
            let mut pick: Option<Route> = None;
            for (kind, nb) in offers {
                let Some(offered) = &best[nb.index()] else {
                    continue;
                };
                let exported = kind == RouteKind::Provider || offered.kind == RouteKind::Customer;
                if !exported || offered.path.contains(&a) {
                    continue;
                }
                let rank = (kind, offered.path.len() + 1, nb);
                if pick
                    .as_ref()
                    .is_none_or(|p| rank < (p.kind, p.path.len(), p.path[0]))
                {
                    let mut path = vec![nb];
                    path.extend_from_slice(&offered.path);
                    pick = Some(Route { kind, path });
                }
            }
            if pick != best[a.index()] {
                best[a.index()] = pick;
                changed = true;
            }
        }
        if !changed {
            return best;
        }
    }
    panic!("decision process towards {dst} did not converge in {MAX_ROUNDS} rounds");
}

/// Checks one destination's table against the fixpoint; returns the
/// number of reachable ASes compared.
fn check_destination(world: &World, oracle: &RoutingOracle, dst: AsId) -> usize {
    let table = oracle.routes_to(dst);
    let fix = fixpoint(world, oracle, dst);
    let mut reachable = 0;
    for a in (0..world.ases.len()).map(AsId::from_index) {
        let (e, r) = match (table.entry(a), &fix[a.index()]) {
            (None, None) => continue,
            (Some(e), Some(r)) => (e, r),
            (e, r) => panic!("dst {dst}, {a}: table {e:?} vs fixpoint {r:?}"),
        };
        reachable += 1;
        assert_eq!(
            (e.kind, e.len as usize),
            (r.kind, r.path.len()),
            "dst {dst}, {a}: class or length differs"
        );
        let Some(next) = e.next else {
            assert_eq!(a, dst, "only the destination has no next hop");
            continue;
        };
        let n = table.entry(next).expect("next hop has a route");
        assert_eq!(
            n.len + 1,
            e.len,
            "dst {dst}, {a}: next hop {next} not one hop shorter"
        );
        let related = match e.kind {
            RouteKind::Customer => {
                world.customers_of(a).contains(&next) && n.kind == RouteKind::Customer
            }
            RouteKind::Peer => oracle.peers_of(a).contains(&next) && n.kind == RouteKind::Customer,
            RouteKind::Provider => world.providers_of(a).contains(&next),
        };
        assert!(
            related,
            "dst {dst}, {a}: next hop {next} is not a valid {:?} neighbour",
            e.kind
        );
        if e.kind == RouteKind::Peer {
            let lowest = oracle
                .peers_of(a)
                .iter()
                .filter_map(|&p| {
                    let pr = fix[p.index()].as_ref()?;
                    (pr.kind == RouteKind::Customer).then_some((pr.path.len(), p))
                })
                .min()
                .map(|(_, p)| p);
            assert_eq!(
                Some(next),
                lowest,
                "dst {dst}, {a}: peer route not via the lowest (len, id) peer"
            );
        }
    }
    assert_eq!(
        reachable,
        table.reachable_count(),
        "dst {dst}: reachable count"
    );
    reachable
}

#[test]
fn route_tables_match_decision_process_fixpoint() {
    let mut destinations = 0;
    for seed in [3, 17, 42] {
        let world = WorldConfig::small(seed).generate();
        let oracle = RoutingOracle::new(&world);
        let n = world.ases.len();
        // A spread of ids (stubs, transit, content) plus IXP members.
        let dsts = (0..n)
            .step_by(n / 16)
            .chain(
                world
                    .memberships
                    .iter()
                    .step_by(97)
                    .map(|m| m.member.index()),
            )
            .map(AsId::from_index);
        for dst in dsts {
            let reachable = check_destination(&world, &oracle, dst);
            assert!(reachable > 1, "dst {dst} reached by nobody");
            destinations += 1;
        }
    }
    assert!(
        destinations >= 50,
        "only {destinations} destinations checked"
    );
}
