//! TPC-H-lite: the eight tables with the columns the Table 2 programs use.
//!
//! Schema (decimals scaled to integer cents):
//!
//! * `Region(rk, name)` — 5 rows
//! * `Nation(nk, rk, name)` — 25 rows
//! * `Supplier(sk, nk, name, bal)`
//! * `Customer(ck, nk, name, bal)`
//! * `Part(pk, name, price)`
//! * `PartSupp(sk, pk, qty, cost)` — supplier key first, matching the
//!   paper's `PS(sk, X)` / `PS(sk, pk, X)` patterns
//! * `Orders(ok, ck, status, total)`
//! * `Lineitem(ok, sk, pk, qty, price)`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::{AttrType, Instance, Schema, Value};

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct TpchConfig {
    /// Suppliers.
    pub suppliers: usize,
    /// Customers.
    pub customers: usize,
    /// Parts.
    pub parts: usize,
    /// Suppliers per part (partsupp = parts × this).
    pub suppliers_per_part: usize,
    /// Orders.
    pub orders: usize,
    /// Average lineitems per order.
    pub lineitems_per_order: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    /// ~370K tuples, matching the paper's 376,175-tuple fragment.
    fn default() -> TpchConfig {
        TpchConfig {
            suppliers: 600,
            customers: 9_000,
            parts: 12_000,
            suppliers_per_part: 4,
            orders: 60_000,
            lineitems_per_order: 4,
            seed: 42,
        }
    }
}

impl TpchConfig {
    /// Scale the big tables by `f`.
    pub fn scaled(f: f64) -> TpchConfig {
        let d = TpchConfig::default();
        let s = |n: usize| ((n as f64 * f) as usize).max(5);
        TpchConfig {
            suppliers: s(d.suppliers),
            customers: s(d.customers),
            parts: s(d.parts),
            suppliers_per_part: d.suppliers_per_part,
            orders: s(d.orders),
            lineitems_per_order: d.lineitems_per_order,
            seed: d.seed,
        }
    }
}

/// Generated database.
#[derive(Debug)]
pub struct TpchData {
    /// The database.
    pub db: Instance,
}

/// The TPC-H-lite schema.
pub fn tpch_schema() -> Schema {
    let mut s = Schema::new();
    s.relation("Region", &[("rk", AttrType::Int), ("name", AttrType::Str)]);
    s.relation(
        "Nation",
        &[
            ("nk", AttrType::Int),
            ("rk", AttrType::Int),
            ("name", AttrType::Str),
        ],
    );
    s.relation(
        "Supplier",
        &[
            ("sk", AttrType::Int),
            ("nk", AttrType::Int),
            ("name", AttrType::Str),
            ("bal", AttrType::Int),
        ],
    );
    s.relation(
        "Customer",
        &[
            ("ck", AttrType::Int),
            ("nk", AttrType::Int),
            ("name", AttrType::Str),
            ("bal", AttrType::Int),
        ],
    );
    s.relation(
        "Part",
        &[
            ("pk", AttrType::Int),
            ("name", AttrType::Str),
            ("price", AttrType::Int),
        ],
    );
    s.relation(
        "PartSupp",
        &[
            ("sk", AttrType::Int),
            ("pk", AttrType::Int),
            ("qty", AttrType::Int),
            ("cost", AttrType::Int),
        ],
    );
    s.relation(
        "Orders",
        &[
            ("ok", AttrType::Int),
            ("ck", AttrType::Int),
            ("status", AttrType::Str),
            ("total", AttrType::Int),
        ],
    );
    s.relation(
        "Lineitem",
        &[
            ("ok", AttrType::Int),
            ("sk", AttrType::Int),
            ("pk", AttrType::Int),
            ("qty", AttrType::Int),
            ("price", AttrType::Int),
        ],
    );
    s
}

/// Generate a database.
pub fn generate(cfg: &TpchConfig) -> TpchData {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Instance::new(tpch_schema());

    for (rk, name) in REGIONS.iter().enumerate() {
        db.insert_values("Region", [Value::Int(rk as i64), Value::str(name)])
            .expect("schema ok");
    }
    for (nk, name) in NATIONS.iter().enumerate() {
        let rk = nk % REGIONS.len();
        db.insert_values(
            "Nation",
            [
                Value::Int(nk as i64),
                Value::Int(rk as i64),
                Value::str(name),
            ],
        )
        .expect("schema ok");
    }
    for sk in 0..cfg.suppliers as i64 {
        let nk = rng.random_range(0..NATIONS.len() as i64);
        let bal = rng.random_range(-99_999..999_999);
        db.insert_values(
            "Supplier",
            [
                Value::Int(sk),
                Value::Int(nk),
                Value::str(&format!("Supplier#{sk:06}")),
                Value::Int(bal),
            ],
        )
        .expect("schema ok");
    }
    for ck in 0..cfg.customers as i64 {
        let nk = rng.random_range(0..NATIONS.len() as i64);
        let bal = rng.random_range(-99_999..999_999);
        db.insert_values(
            "Customer",
            [
                Value::Int(ck),
                Value::Int(nk),
                Value::str(&format!("Customer#{ck:06}")),
                Value::Int(bal),
            ],
        )
        .expect("schema ok");
    }
    for pk in 0..cfg.parts as i64 {
        let price = 90_000 + (pk % 200_000);
        db.insert_values(
            "Part",
            [
                Value::Int(pk),
                Value::str(&format!("Part#{pk:06}")),
                Value::Int(price),
            ],
        )
        .expect("schema ok");
    }
    for pk in 0..cfg.parts as i64 {
        for i in 0..cfg.suppliers_per_part as i64 {
            let sk = (pk + i * (cfg.suppliers as i64 / 4 + 1)) % cfg.suppliers as i64;
            let qty = rng.random_range(1..10_000);
            let cost = rng.random_range(100..100_000);
            db.insert_values(
                "PartSupp",
                [
                    Value::Int(sk),
                    Value::Int(pk),
                    Value::Int(qty),
                    Value::Int(cost),
                ],
            )
            .expect("schema ok");
        }
    }
    let mut order_keys = Vec::with_capacity(cfg.orders);
    for ok in 0..cfg.orders as i64 {
        let ck = rng.random_range(0..cfg.customers as i64);
        let status = ["O", "F", "P"][rng.random_range(0..3usize)];
        let total = rng.random_range(1_000..500_000);
        db.insert_values(
            "Orders",
            [
                Value::Int(ok),
                Value::Int(ck),
                Value::str(status),
                Value::Int(total),
            ],
        )
        .expect("schema ok");
        order_keys.push(ok);
    }
    for &ok in &order_keys {
        let n = 1 + rng.random_range(0..cfg.lineitems_per_order * 2 - 1);
        for _ in 0..n {
            let sk = rng.random_range(0..cfg.suppliers as i64);
            let pk = rng.random_range(0..cfg.parts as i64);
            let qty = rng.random_range(1..50);
            let price = rng.random_range(100..100_000);
            db.insert_values(
                "Lineitem",
                [
                    Value::Int(ok),
                    Value::Int(sk),
                    Value::Int(pk),
                    Value::Int(qty),
                    Value::Int(price),
                ],
            )
            .expect("schema ok");
        }
    }
    TpchData { db }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchData {
        generate(&TpchConfig {
            suppliers: 20,
            customers: 50,
            parts: 60,
            suppliers_per_part: 2,
            orders: 100,
            lineitems_per_order: 3,
            seed: 5,
        })
    }

    #[test]
    fn fixed_tables_have_fixed_sizes() {
        let d = small();
        let s = d.db.schema();
        assert_eq!(d.db.rows(s.rel_id("Region").unwrap()), 5);
        assert_eq!(d.db.rows(s.rel_id("Nation").unwrap()), 25);
        assert_eq!(d.db.rows(s.rel_id("PartSupp").unwrap()), 120);
    }

    #[test]
    fn lineitems_reference_valid_keys() {
        let d = small();
        let s = d.db.schema();
        let li = s.rel_id("Lineitem").unwrap();
        for (_, t) in d.db.relation(li).iter() {
            assert!(t[0].as_int().unwrap() < 100);
            assert!(t[1].as_int().unwrap() < 20);
            assert!(t[2].as_int().unwrap() < 60);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(storage::tsv::to_tsv(&a.db), storage::tsv::to_tsv(&b.db));
    }

    #[test]
    fn default_config_is_paper_scale() {
        let cfg = TpchConfig::default();
        let approx_total = 5
            + 25
            + cfg.suppliers
            + cfg.customers
            + cfg.parts
            + cfg.parts * cfg.suppliers_per_part
            + cfg.orders
            + cfg.orders * cfg.lineitems_per_order;
        assert!(approx_total > 350_000 && approx_total < 400_000);
    }
}
