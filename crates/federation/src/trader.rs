//! Trader interworking across federation domains.
//!
//! Each environment's platform trader only knows its own offers. The
//! [`FederatedTrader`] links trading *domains* (one per environment):
//! a query that misses locally is forwarded across up links
//! breadth-first, bounded by a hop budget and a visited set
//! ([`odp::QueryScope`]), and hits are cached with a TTL so repeat
//! resolutions stop paying the federated walk until the cache entry
//! goes stale.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cscw_kernel::Timestamp;
use odp::{LinkState, QueryScope, TraderLink};

use crate::error::FederationError;

/// Where a resolution's answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionSource {
    /// The querying domain itself advertises the application.
    Local,
    /// A fresh cache entry answered without a federated walk.
    Cache,
    /// A federated walk across links found it.
    Federated,
}

/// The answer to "which environment hosts this application?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The hosting domain.
    pub domain: String,
    /// Where the answer came from.
    pub source: ResolutionSource,
    /// True when at least one link was down during the walk — the
    /// answer may be incomplete (local-only / partial coverage).
    pub degraded: bool,
}

#[derive(Debug, Clone)]
struct CacheSlot {
    domain: String,
    cached_at: Timestamp,
}

/// Links + offer cache for federated application resolution.
#[derive(Debug, Clone)]
pub struct FederatedTrader {
    links: Vec<TraderLink>,
    cache: BTreeMap<String, CacheSlot>,
    hop_limit: u8,
    ttl_micros: u64,
}

/// Default hop budget: enough for small federations, small enough that
/// a pathological link graph stays cheap.
pub const DEFAULT_HOP_LIMIT: u8 = 4;

/// Default remote-offer cache TTL (5 simulated seconds).
pub const DEFAULT_TTL_MICROS: u64 = 5_000_000;

impl Default for FederatedTrader {
    fn default() -> Self {
        Self::new()
    }
}

impl FederatedTrader {
    /// A trader with default hop budget and TTL.
    pub fn new() -> Self {
        FederatedTrader {
            links: Vec::new(),
            cache: BTreeMap::new(),
            hop_limit: DEFAULT_HOP_LIMIT,
            ttl_micros: DEFAULT_TTL_MICROS,
        }
    }

    /// Overrides the hop budget.
    pub fn with_hop_limit(mut self, hops: u8) -> Self {
        self.hop_limit = hops;
        self
    }

    /// Overrides the remote-offer TTL.
    pub fn with_ttl_micros(mut self, micros: u64) -> Self {
        self.ttl_micros = micros;
        self
    }

    /// The configured hop budget.
    pub fn hop_limit(&self) -> u8 {
        self.hop_limit
    }

    /// Adds a directed link.
    pub fn link(&mut self, from: impl Into<String>, to: impl Into<String>) {
        self.links.push(TraderLink::new(from, to));
    }

    /// Sets one directed link's health. Returns false when no such link
    /// exists.
    pub fn set_link_state(&mut self, from: &str, to: &str, state: LinkState) -> bool {
        let mut found = false;
        for link in &mut self.links {
            if link.from == from && link.to == to {
                link.state = state;
                found = true;
            }
        }
        found
    }

    /// The links, for inspection.
    pub fn links(&self) -> &[TraderLink] {
        &self.links
    }

    /// Cached entries currently held (fresh or stale).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops cache entries older than the TTL at `now`; returns how
    /// many were dropped.
    pub fn expire_cache(&mut self, now: Timestamp) -> usize {
        let ttl = self.ttl_micros;
        let before = self.cache.len();
        self.cache
            .retain(|_, slot| now.micros_since(slot.cached_at) < ttl);
        before - self.cache.len()
    }

    /// Resolves the domain advertising `app`, querying `advertised`
    /// (domain → advertised application names) from `from` across up
    /// links.
    ///
    /// # Errors
    ///
    /// * [`FederationError::UnknownApplication`] — nothing reachable
    ///   advertises it and every link crossed was up.
    /// * [`FederationError::Partitioned`] — nothing reachable advertises
    ///   it, but at least one down link pruned the walk: the answer is
    ///   only authoritative for the reachable fragment.
    pub fn resolve(
        &mut self,
        from: &str,
        app: &str,
        advertised: &BTreeMap<String, BTreeSet<String>>,
        now: Timestamp,
    ) -> Result<Resolution, FederationError> {
        // Local first: federation must never shadow the home domain.
        if advertised.get(from).is_some_and(|apps| apps.contains(app)) {
            return Ok(Resolution {
                domain: from.to_owned(),
                source: ResolutionSource::Local,
                degraded: false,
            });
        }
        // Fresh cache hit?
        if let Some(slot) = self.cache.get(app) {
            if now.micros_since(slot.cached_at) < self.ttl_micros {
                return Ok(Resolution {
                    domain: slot.domain.clone(),
                    source: ResolutionSource::Cache,
                    degraded: false,
                });
            }
            self.cache.remove(app);
        }
        // Federated walk: breadth-first over up links, loop-suppressed,
        // hop-budgeted per BFS depth. Every domain at depth `d` is `d`
        // hops from `from`, so a level costs one hop however many links
        // fan out of it.
        let mut scope = QueryScope::with_hop_limit(self.hop_limit);
        scope
            .enter(from)
            .map_err(|_| FederationError::QueryLoop(from.to_owned()))?;
        let mut degraded = false;
        let mut hops_spent: u8 = 0;
        let mut queue = VecDeque::from([(from.to_owned(), 0u8)]);
        while let Some((here, depth)) = queue.pop_front() {
            if advertised.get(&here).is_some_and(|apps| apps.contains(app)) {
                self.cache.insert(
                    app.to_owned(),
                    CacheSlot {
                        domain: here.clone(),
                        cached_at: now,
                    },
                );
                return Ok(Resolution {
                    domain: here,
                    source: ResolutionSource::Federated,
                    degraded,
                });
            }
            // The queue is in depth order, so the first domain expanded
            // at a new depth pays that level's hop.
            if depth == hops_spent && scope.descend() {
                hops_spent += 1;
            }
            let within_budget = depth < hops_spent;
            for link in self.links.iter().filter(|l| l.from == here) {
                if !link.is_up() {
                    degraded = true;
                    continue;
                }
                if scope.visited().contains(&link.to) {
                    continue; // loop suppression: each domain once
                }
                if !within_budget {
                    // Budget exhausted: stop expanding, finish scanning
                    // what is already queued.
                    continue;
                }
                scope
                    .enter(&link.to)
                    .map_err(|_| FederationError::QueryLoop(link.to.clone()))?;
                queue.push_back((link.to.clone(), depth + 1));
            }
        }
        if degraded {
            Err(FederationError::Partitioned(app.to_owned()))
        } else {
            Err(FederationError::UnknownApplication(app.to_owned()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ads(pairs: &[(&str, &[&str])]) -> BTreeMap<String, BTreeSet<String>> {
        pairs
            .iter()
            .map(|(d, apps)| {
                (
                    (*d).to_owned(),
                    apps.iter().map(|a| (*a).to_owned()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn local_wins_without_a_walk() {
        let mut t = FederatedTrader::new();
        t.link("a", "b");
        let advertised = ads(&[("a", &["editor"]), ("b", &["editor"])]);
        let r = t
            .resolve("a", "editor", &advertised, Timestamp::ZERO)
            .unwrap();
        assert_eq!(r.domain, "a");
        assert_eq!(r.source, ResolutionSource::Local);
    }

    #[test]
    fn federated_hit_is_cached_until_ttl() {
        let mut t = FederatedTrader::new().with_ttl_micros(100);
        t.link("a", "b");
        let advertised = ads(&[("a", &[]), ("b", &["com"])]);
        let r = t.resolve("a", "com", &advertised, Timestamp::ZERO).unwrap();
        assert_eq!(
            (r.domain.as_str(), r.source),
            ("b", ResolutionSource::Federated)
        );
        // Second query: cache, even if the link has gone down.
        t.set_link_state("a", "b", LinkState::Down);
        let r = t
            .resolve("a", "com", &advertised, Timestamp::from_micros(50))
            .unwrap();
        assert_eq!(
            (r.domain.as_str(), r.source),
            ("b", ResolutionSource::Cache)
        );
        // Past the TTL the stale entry expires and the walk (now
        // partitioned) degrades.
        let err = t
            .resolve("a", "com", &advertised, Timestamp::from_micros(200))
            .unwrap_err();
        assert!(matches!(err, FederationError::Partitioned(_)));
        // The stale resolve above already evicted the entry.
        assert_eq!(t.expire_cache(Timestamp::from_micros(200)), 0);
        assert_eq!(t.cache_len(), 0);
    }

    #[test]
    fn cycles_terminate_via_visited_set() {
        let mut t = FederatedTrader::new();
        t.link("a", "b");
        t.link("b", "c");
        t.link("c", "a"); // A→B→C→A
        let advertised = ads(&[("a", &[]), ("b", &[]), ("c", &["com"])]);
        let r = t.resolve("a", "com", &advertised, Timestamp::ZERO).unwrap();
        assert_eq!(r.domain, "c");
        // And an unmatched query on the same cycle still terminates.
        let err = t
            .resolve("a", "ghost", &advertised, Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(err, FederationError::UnknownApplication(_)));
    }

    #[test]
    fn hop_budget_bounds_chain_depth() {
        let mut t = FederatedTrader::new().with_hop_limit(2);
        t.link("a", "b");
        t.link("b", "c");
        t.link("c", "d");
        let advertised = ads(&[("a", &[]), ("b", &[]), ("c", &[]), ("d", &["far"])]);
        // d is 3 hops out; budget is 2.
        let err = t
            .resolve("a", "far", &advertised, Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(err, FederationError::UnknownApplication(_)));
        // c is 2 hops out: reachable.
        let advertised = ads(&[("a", &[]), ("b", &[]), ("c", &["near"]), ("d", &[])]);
        let r = t
            .resolve("a", "near", &advertised, Timestamp::ZERO)
            .unwrap();
        assert_eq!(r.domain, "c");
    }

    #[test]
    fn hop_budget_is_spent_per_depth_not_per_link() {
        // Six direct neighbours, one hop each: the default budget of 4
        // must not run out before the last of them is consulted.
        let mut t = FederatedTrader::new();
        let neighbours = ["b", "c", "d", "e", "f", "g"];
        for n in neighbours {
            t.link("a", n);
        }
        assert!(neighbours.len() > usize::from(t.hop_limit()));
        let mut advertised = ads(&[("a", &[])]);
        for n in neighbours {
            advertised.insert(n.to_owned(), BTreeSet::new());
        }
        advertised.insert("g".to_owned(), BTreeSet::from(["last".to_owned()]));
        let r = t
            .resolve("a", "last", &advertised, Timestamp::ZERO)
            .unwrap();
        assert_eq!(
            (r.domain.as_str(), r.source),
            ("g", ResolutionSource::Federated)
        );
    }

    #[test]
    fn down_links_degrade_to_local_only() {
        let mut t = FederatedTrader::new();
        t.link("a", "b");
        t.set_link_state("a", "b", LinkState::Down);
        let advertised = ads(&[("a", &["home"]), ("b", &["com"])]);
        // Local still resolves.
        let r = t
            .resolve("a", "home", &advertised, Timestamp::ZERO)
            .unwrap();
        assert_eq!(r.source, ResolutionSource::Local);
        // Remote is behind the partition: transient, flagged.
        let err = t
            .resolve("a", "com", &advertised, Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(err, FederationError::Partitioned(_)));
        // Heal: resolves federated again.
        assert!(t.set_link_state("a", "b", LinkState::Up));
        let r = t.resolve("a", "com", &advertised, Timestamp::ZERO).unwrap();
        assert_eq!(r.source, ResolutionSource::Federated);
    }
}
