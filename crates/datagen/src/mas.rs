//! Synthetic Microsoft-Academic-Search-style database.
//!
//! Schema (matching Section 6 of the paper):
//! `Organization(oid, name)`, `Author(aid, name, oid)`, `Writes(aid, pid)`,
//! `Publication(pid, title, year)`, `Cite(citing, cited)`.
//!
//! The default configuration produces ~124K tuples like the paper's MAS
//! fragment. Authors are assigned to organizations with Zipf skew, papers
//! to authors with Zipf skew, and citations prefer popular papers — so the
//! workload constants (the busiest organization, a heavily-shared author
//! name, …) select cascades of interesting size.

use crate::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::{AttrType, Instance, Schema, Value};

const FIRST_NAMES: [&str; 40] = [
    "Ada",
    "Alan",
    "Barbara",
    "Claude",
    "Donald",
    "Edgar",
    "Edsger",
    "Frances",
    "Grace",
    "Hedy",
    "John",
    "Kathleen",
    "Ken",
    "Leslie",
    "Margaret",
    "Niklaus",
    "Radia",
    "Tim",
    "Tony",
    "Vint",
    "Anita",
    "Butler",
    "Charles",
    "Dana",
    "Erna",
    "Fernando",
    "Gerald",
    "Ivan",
    "Juris",
    "Kristen",
    "Manuel",
    "Ole",
    "Peter",
    "Richard",
    "Robin",
    "Stephen",
    "Shafi",
    "Silvio",
    "Whitfield",
    "Martin",
];

const LAST_NAMES: [&str; 30] = [
    "Lovelace",
    "Turing",
    "Liskov",
    "Shannon",
    "Knuth",
    "Codd",
    "Dijkstra",
    "Allen",
    "Hopper",
    "Lamarr",
    "Backus",
    "Booth",
    "Thompson",
    "Lamport",
    "Hamilton",
    "Wirth",
    "Perlman",
    "Lee",
    "Hoare",
    "Cerf",
    "Borg",
    "Lampson",
    "Bachman",
    "Scott",
    "Hoover",
    "Corbato",
    "Sussman",
    "Sutherland",
    "Hartmanis",
    "Nygaard",
];

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct MasConfig {
    /// Number of organizations.
    pub organizations: usize,
    /// Number of authors.
    pub authors: usize,
    /// Number of publications.
    pub publications: usize,
    /// Target number of `Writes` edges (each publication gets ≥1).
    pub writes: usize,
    /// Number of citation edges.
    pub cites: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MasConfig {
    /// ~124K tuples, like the paper's fragment.
    fn default() -> MasConfig {
        MasConfig {
            organizations: 2_000,
            authors: 20_000,
            publications: 30_000,
            writes: 52_000,
            cites: 20_000,
            seed: 42,
        }
    }
}

impl MasConfig {
    /// Scale every table by `f` (used by scaling benches).
    pub fn scaled(f: f64) -> MasConfig {
        let d = MasConfig::default();
        let s = |n: usize| ((n as f64 * f) as usize).max(10);
        MasConfig {
            organizations: s(d.organizations),
            authors: s(d.authors),
            publications: s(d.publications),
            writes: s(d.writes),
            cites: s(d.cites),
            seed: d.seed,
        }
    }
}

/// The generated instance plus the metadata workload constants are chosen
/// from.
#[derive(Debug)]
pub struct MasData {
    /// The database.
    pub db: Instance,
    /// `oid` of the organization with the most authors.
    pub busiest_org: i64,
    /// `aid` of the author with the most publications.
    pub busiest_author: i64,
    /// An author name shared by many authors.
    pub common_name: String,
    /// `pid` of the most-cited publication.
    pub top_pub: i64,
}

/// The MAS schema.
pub fn mas_schema() -> Schema {
    let mut s = Schema::new();
    s.relation(
        "Organization",
        &[("oid", AttrType::Int), ("name", AttrType::Str)],
    );
    s.relation(
        "Author",
        &[
            ("aid", AttrType::Int),
            ("name", AttrType::Str),
            ("oid", AttrType::Int),
        ],
    );
    s.relation("Writes", &[("aid", AttrType::Int), ("pid", AttrType::Int)]);
    s.relation(
        "Publication",
        &[
            ("pid", AttrType::Int),
            ("title", AttrType::Str),
            ("year", AttrType::Int),
        ],
    );
    s.relation(
        "Cite",
        &[("citing", AttrType::Int), ("cited", AttrType::Int)],
    );
    s
}

/// Generate a database.
pub fn generate(cfg: &MasConfig) -> MasData {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Instance::new(mas_schema());

    for oid in 0..cfg.organizations as i64 {
        db.insert_values(
            "Organization",
            [Value::Int(oid), Value::str(&format!("Org{oid}"))],
        )
        .expect("schema ok");
    }

    // Authors: Zipf-skewed organization assignment; names from a small pool
    // so the same full name is shared by many authors.
    let org_sampler = ZipfSampler::new(cfg.organizations, 1.0);
    let mut org_sizes = vec![0usize; cfg.organizations];
    for aid in 0..cfg.authors as i64 {
        let oid = org_sampler.sample(&mut rng);
        org_sizes[oid] += 1;
        let name = format!(
            "{} {}",
            FIRST_NAMES[rng.random_range(0..FIRST_NAMES.len())],
            LAST_NAMES[rng.random_range(0..LAST_NAMES.len())]
        );
        db.insert_values(
            "Author",
            [Value::Int(aid), Value::str(&name), Value::Int(oid as i64)],
        )
        .expect("schema ok");
    }

    for pid in 0..cfg.publications as i64 {
        let year = 1990 + rng.random_range(0..35i64);
        db.insert_values(
            "Publication",
            [
                Value::Int(pid),
                Value::str(&format!("Title-{pid}")),
                Value::Int(year),
            ],
        )
        .expect("schema ok");
    }

    // Writes: every publication gets one Zipf-chosen author; the remaining
    // budget adds co-authors.
    let author_sampler = ZipfSampler::new(cfg.authors, 0.8);
    let mut author_pubs = vec![0usize; cfg.authors];
    let add_edge = |db: &mut Instance, rng: &mut StdRng, author_pubs: &mut Vec<usize>, pid: i64| {
        let aid = author_sampler.sample(rng);
        author_pubs[aid] += 1;
        db.insert_values("Writes", [Value::Int(aid as i64), Value::Int(pid)])
            .expect("schema ok");
    };
    for pid in 0..cfg.publications as i64 {
        add_edge(&mut db, &mut rng, &mut author_pubs, pid);
    }
    for _ in cfg.publications..cfg.writes {
        let pid = rng.random_range(0..cfg.publications as i64);
        add_edge(&mut db, &mut rng, &mut author_pubs, pid);
    }

    // Citations prefer popular (low-pid) papers; no self-citations.
    let cited_sampler = ZipfSampler::new(cfg.publications, 0.9);
    let mut cite_counts = vec![0usize; cfg.publications];
    let mut inserted = 0;
    while inserted < cfg.cites {
        let citing = rng.random_range(0..cfg.publications);
        let cited = cited_sampler.sample(&mut rng);
        if citing == cited {
            continue;
        }
        cite_counts[cited] += 1;
        db.insert_values(
            "Cite",
            [Value::Int(citing as i64), Value::Int(cited as i64)],
        )
        .expect("schema ok");
        inserted += 1;
    }

    let busiest_org = org_sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, n)| n)
        .map(|(i, _)| i as i64)
        .unwrap_or(0);
    let busiest_author = author_pubs
        .iter()
        .enumerate()
        .max_by_key(|&(_, n)| n)
        .map(|(i, _)| i as i64)
        .unwrap_or(0);
    let top_pub = cite_counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, n)| n)
        .map(|(i, _)| i as i64)
        .unwrap_or(0);
    // The most common full name.
    use std::collections::HashMap;
    let mut name_counts: HashMap<&str, usize> = HashMap::new();
    let author_rel = db.schema().rel_id("Author").expect("schema");
    for (_, t) in db.relation(author_rel).iter() {
        *name_counts
            .entry(t[1].as_str().expect("string"))
            .or_insert(0) += 1;
    }
    // Ties on count are broken lexicographically so the constant wired into
    // the workloads is identical across runs (HashMap iteration order is
    // not deterministic).
    let common_name = name_counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
        .map(|(n, _)| n.to_owned())
        .unwrap_or_default();

    MasData {
        db,
        busiest_org,
        busiest_author,
        common_name,
        top_pub,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MasData {
        generate(&MasConfig {
            organizations: 30,
            authors: 300,
            publications: 400,
            writes: 700,
            cites: 300,
            seed: 1,
        })
    }

    #[test]
    fn tuple_counts_match_config() {
        let d = small();
        let s = d.db.schema();
        assert_eq!(d.db.rows(s.rel_id("Organization").unwrap()), 30);
        assert_eq!(d.db.rows(s.rel_id("Author").unwrap()), 300);
        assert_eq!(d.db.rows(s.rel_id("Publication").unwrap()), 400);
        // Writes/Cite deduplicate, so counts are ≤ the budget but close.
        assert!(d.db.rows(s.rel_id("Writes").unwrap()) > 600);
        assert!(d.db.rows(s.rel_id("Cite").unwrap()) > 250);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(storage::tsv::to_tsv(&a.db), storage::tsv::to_tsv(&b.db));
        assert_eq!(a.busiest_org, b.busiest_org);
        let c = generate(&MasConfig {
            seed: 2,
            ..MasConfig {
                organizations: 30,
                authors: 300,
                publications: 400,
                writes: 700,
                cites: 300,
                seed: 2,
            }
        });
        assert_ne!(storage::tsv::to_tsv(&a.db), storage::tsv::to_tsv(&c.db));
    }

    #[test]
    fn metadata_points_at_real_heavy_hitters() {
        let d = small();
        let s = d.db.schema();
        // The busiest org really has the most authors.
        let author = s.rel_id("Author").unwrap();
        let mut counts = std::collections::HashMap::new();
        for (_, t) in d.db.relation(author).iter() {
            *counts.entry(t[2].as_int().unwrap()).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert_eq!(counts[&d.busiest_org], max);
        assert!(!d.common_name.is_empty());
    }

    #[test]
    fn referential_integrity() {
        let d = small();
        let s = d.db.schema();
        let writes = s.rel_id("Writes").unwrap();
        for (_, t) in d.db.relation(writes).iter() {
            let aid = t[0].as_int().unwrap();
            let pid = t[1].as_int().unwrap();
            assert!(aid >= 0 && (aid as usize) < 300);
            assert!(pid >= 0 && (pid as usize) < 400);
        }
        let cite = s.rel_id("Cite").unwrap();
        for (_, t) in d.db.relation(cite).iter() {
            assert_ne!(t[0], t[1], "no self citations");
        }
    }

    #[test]
    fn default_config_is_paper_scale() {
        let cfg = MasConfig::default();
        let total = cfg.organizations + cfg.authors + cfg.publications + cfg.writes + cfg.cites;
        assert_eq!(total, 124_000);
    }
}
