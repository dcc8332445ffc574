//! The zipf scaling dataset: a synthetic cascade universe for measuring
//! the join core at up to 50× the paper's workload sizes.
//!
//! The MAS and TPC-H generators reproduce the paper's experiments; this one
//! stresses a single join: a handful of rules where one wide join
//! dominates, over Zipf-skewed foreign keys so a few "heavy" hub tuples
//! own a large share of the join cone. Costs here are the probe plans' and
//! the indexes', not the number of rules.
//!
//! Schema:
//!
//! * `Hub(hid, kind)` — seed relation; a deterministic ~2.4% slice carries
//!   `kind = 'bad'` (every 41st id, which includes the heaviest hub 0);
//! * `Link(hid, mid)` — hub side Zipf-skewed: heavy hubs fan out widely;
//! * `Mid(mid, w)` — the middle tier;
//! * `Leaf(mid, lid)` — mid side Zipf-skewed: heavy mids own many leaves.
//!
//! Defaults produce ~122K tuples (the MAS fragment's order of magnitude) at
//! scale 1.0; [`ScaleConfig::scaled`] takes the multiplier — `scaled(10.0)`
//! ≈ 1.2M tuples, `scaled(50.0)` ≈ 6.1M — with per-table costs linear in
//! the factor (the Zipf samplers precompute one cumulative table per
//! relation and sample by binary search).

use crate::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::{AttrType, Instance, Schema, Value};

/// Every 41st hub id is `'bad'` — includes hub 0, the Zipf-heaviest, so
/// the bad slice always reaches into the dense part of the join cone.
const BAD_STRIDE: i64 = 41;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Number of hub tuples.
    pub hubs: usize,
    /// Number of middle-tier tuples.
    pub mids: usize,
    /// Target number of `Link` edges (deduplicated, so slightly fewer land).
    pub links: usize,
    /// Target number of `Leaf` edges.
    pub leaves: usize,
    /// Zipf skew of the hub side of `Link` (1.0 ≈ classic Zipf).
    pub hub_skew: f64,
    /// Zipf skew of the mid side of `Leaf`.
    pub leaf_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScaleConfig {
    /// ~122K tuples at scale 1.0.
    fn default() -> ScaleConfig {
        ScaleConfig {
            hubs: 2_000,
            mids: 20_000,
            links: 40_000,
            leaves: 60_000,
            hub_skew: 1.0,
            leaf_skew: 0.8,
            seed: 42,
        }
    }
}

impl ScaleConfig {
    /// Scale every table by `f`; the scaling benches run `f` in 10..=50.
    pub fn scaled(f: f64) -> ScaleConfig {
        let d = ScaleConfig::default();
        let s = |n: usize| ((n as f64 * f) as usize).max(10);
        ScaleConfig {
            hubs: s(d.hubs),
            mids: s(d.mids),
            links: s(d.links),
            leaves: s(d.leaves),
            ..d
        }
    }
}

/// The generated instance plus the metadata tests assert against.
#[derive(Debug)]
pub struct ScaleData {
    /// The database.
    pub db: Instance,
    /// Number of `'bad'` hub tuples (the cascade seeds).
    pub bad_hubs: usize,
}

/// The zipf-universe schema.
pub fn scale_schema() -> Schema {
    let mut s = Schema::new();
    s.relation("Hub", &[("hid", AttrType::Int), ("kind", AttrType::Str)]);
    s.relation("Link", &[("hid", AttrType::Int), ("mid", AttrType::Int)]);
    s.relation("Mid", &[("mid", AttrType::Int), ("w", AttrType::Int)]);
    s.relation("Leaf", &[("mid", AttrType::Int), ("lid", AttrType::Int)]);
    s
}

/// Generate a database.
pub fn generate(cfg: &ScaleConfig) -> ScaleData {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Instance::new(scale_schema());

    let mut bad_hubs = 0usize;
    for hid in 0..cfg.hubs as i64 {
        let bad = hid % BAD_STRIDE == 0;
        bad_hubs += usize::from(bad);
        db.insert_values(
            "Hub",
            [Value::Int(hid), Value::str(if bad { "bad" } else { "ok" })],
        )
        .expect("schema ok");
    }

    for mid in 0..cfg.mids as i64 {
        let w = rng.random_range(0..100i64);
        db.insert_values("Mid", [Value::Int(mid), Value::Int(w)])
            .expect("schema ok");
    }

    // Links: hub side Zipf-skewed, mid side uniform. Relations are sets, so
    // duplicate draws collapse; the budget is a target, not an exact count.
    let hub_sampler = ZipfSampler::new(cfg.hubs, cfg.hub_skew);
    for _ in 0..cfg.links {
        let hid = hub_sampler.sample(&mut rng) as i64;
        let mid = rng.random_range(0..cfg.mids as i64);
        db.insert_values("Link", [Value::Int(hid), Value::Int(mid)])
            .expect("schema ok");
    }

    // Leaves: mid side Zipf-skewed, leaf ids sequential (never collide).
    let mid_sampler = ZipfSampler::new(cfg.mids, cfg.leaf_skew);
    for lid in 0..cfg.leaves as i64 {
        let mid = mid_sampler.sample(&mut rng) as i64;
        db.insert_values("Leaf", [Value::Int(mid), Value::Int(lid)])
            .expect("schema ok");
    }

    ScaleData { db, bad_hubs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScaleData {
        generate(&ScaleConfig {
            hubs: 100,
            mids: 300,
            links: 600,
            leaves: 900,
            ..ScaleConfig::default()
        })
    }

    #[test]
    fn tuple_counts_match_config() {
        let d = small();
        let s = d.db.schema();
        assert_eq!(d.db.rows(s.rel_id("Hub").unwrap()), 100);
        assert_eq!(d.db.rows(s.rel_id("Mid").unwrap()), 300);
        assert_eq!(d.db.rows(s.rel_id("Leaf").unwrap()), 900);
        // Links deduplicate: ≤ budget but close.
        let links = d.db.rows(s.rel_id("Link").unwrap());
        assert!(links > 400 && links <= 600, "links = {links}");
        assert_eq!(d.bad_hubs, 100usize.div_ceil(BAD_STRIDE as usize));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(storage::tsv::to_tsv(&a.db), storage::tsv::to_tsv(&b.db));
        let c = generate(&ScaleConfig {
            hubs: 100,
            mids: 300,
            links: 600,
            leaves: 900,
            seed: 7,
            ..ScaleConfig::default()
        });
        assert_ne!(storage::tsv::to_tsv(&a.db), storage::tsv::to_tsv(&c.db));
    }

    #[test]
    fn heavy_hub_is_bad_and_dominates_links() {
        // Hub 0 is 'bad' by the stride and Zipf-heaviest by construction:
        // the cascade seeds always reach a dense join cone.
        let d = small();
        let s = d.db.schema();
        let hub = s.rel_id("Hub").unwrap();
        let (_, t) = d.db.relation(hub).iter().next().unwrap();
        assert_eq!(t[1].as_str(), Some("bad"));
        let link = s.rel_id("Link").unwrap();
        let mut per_hub = std::collections::HashMap::new();
        for (_, t) in d.db.relation(link).iter() {
            *per_hub.entry(t[0].as_int().unwrap()).or_insert(0usize) += 1;
        }
        let max = per_hub.values().copied().max().unwrap();
        assert_eq!(per_hub[&0], max, "hub 0 owns the most links");
    }

    #[test]
    fn scaled_grows_linearly() {
        let ten = ScaleConfig::scaled(10.0);
        assert_eq!(ten.hubs, 20_000);
        assert_eq!(ten.leaves, 600_000);
        let fifty = ScaleConfig::scaled(50.0);
        assert_eq!(fifty.mids, 1_000_000);
    }
}
