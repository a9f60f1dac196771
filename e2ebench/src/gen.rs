//! Seeded input generators. Every input the program sees is built here
//! from the workload seed, so the same seed gives the same tables,
//! probes and query parameters; the program only receives the generated
//! tables and values.

use mmdb::{GroupRow, Table, TableBuilder, Value};
use std::collections::BTreeMap;

/// SplitMix64: small, fast and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under one seed, so that
    /// adding a stream never shifts the values of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

/// A column of `n` distinct even values `2 * perm[rid]`, with the
/// inverse map. Probes drawn uniformly from `0..2n` hit half the time,
/// and every hit has exactly one RID: the value -> RID map is a
/// bijection by construction, so every point answer is checkable.
#[derive(Debug, Clone)]
pub struct Distinct {
    pub values: Vec<i64>,
    rid_of: Vec<u32>,
}

impl Distinct {
    pub fn new(n: usize, rng: &mut Rng) -> Self {
        let perm = permutation(n, rng);
        let mut rid_of = vec![0u32; n];
        for (rid, &p) in perm.iter().enumerate() {
            rid_of[p as usize] = rid as u32;
        }
        let values = perm.iter().map(|&p| 2 * p as i64).collect();
        Self { values, rid_of }
    }

    /// The half-open value range probes are drawn from.
    pub fn span(&self) -> i64 {
        2 * self.values.len() as i64
    }

    /// The expected answer of `eq(column, v)`: the single RID, or none.
    pub fn rid(&self, v: i64) -> Option<u32> {
        (v >= 0 && v % 2 == 0 && v < self.span()).then(|| self.rid_of[(v / 2) as usize])
    }

    /// A uniform probe over the whole span: half of them miss.
    pub fn probe(&self, rng: &mut Rng) -> i64 {
        rng.below(self.span() as u64) as i64
    }
}

pub const REGIONS: [&str; 8] = [
    "central",
    "east",
    "north",
    "northeast",
    "northwest",
    "south",
    "southwest",
    "west",
];

/// Days in the `orders.day` column.
pub const DAYS: u64 = 730;

/// The decision-support star: `orders(cust, amount, day)` and
/// `customers(id, region)`. `amount` is [`Distinct`], `cust` is uniform
/// over the customer ids, `customers.id` is a permutation of
/// `0..customers`.
#[derive(Debug, Clone)]
pub struct Star {
    pub cust: Vec<i64>,
    pub amount: Distinct,
    pub day: Vec<i64>,
    pub customer_id: Vec<i64>,
    /// Region of customer `id` (indexed by id, not by RID).
    pub region_of: Vec<u8>,
}

impl Star {
    pub fn new(orders: usize, customers: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let amount = Distinct::new(orders, &mut rng);
        let cust = (0..orders)
            .map(|_| rng.below(customers as u64) as i64)
            .collect();
        let day = (0..orders).map(|_| rng.below(DAYS) as i64).collect();
        let customer_id = permutation(customers, &mut rng)
            .into_iter()
            .map(i64::from)
            .collect();
        let region_of = (0..customers)
            .map(|_| rng.below(REGIONS.len() as u64) as u8)
            .collect();
        Self {
            cust,
            amount,
            day,
            customer_id,
            region_of,
        }
    }

    pub fn orders(&self) -> usize {
        self.cust.len()
    }

    pub fn orders_table(&self) -> Table {
        TableBuilder::new("orders")
            .int_column("cust", self.cust.iter().copied())
            .int_column("amount", self.amount.values.iter().copied())
            .int_column("day", self.day.iter().copied())
            .build()
            .expect("equal column lengths")
    }

    pub fn customers_table(&self) -> Table {
        TableBuilder::new("customers")
            .int_column("id", self.customer_id.iter().copied())
            .str_column(
                "region",
                self.customer_id
                    .iter()
                    .map(|&id| REGIONS[self.region_of[id as usize] as usize]),
            )
            .build()
            .expect("equal column lengths")
    }

    /// Bytes of user data: 8 per integer cell, the string length per
    /// string cell.
    pub fn user_bytes(&self) -> u64 {
        let ints = 3 * self.orders() + self.customer_id.len();
        let strs: usize = self
            .region_of
            .iter()
            .map(|&r| REGIONS[r as usize].len())
            .sum();
        (8 * ints + strs) as u64
    }
}

/// The three decision-support query shapes of the `dss-join` rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A ~5% range on `amount`, joined to `customers` on `cust = id`,
    /// grouped by `region` with `sum(amount)`.
    JoinGroup,
    /// A ~5% range on `amount` grouped by `day` with `sum(amount)`.
    RangeGroup,
    /// `eq` on `cust`.
    Point,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::JoinGroup, Shape::RangeGroup, Shape::Point];

    pub fn name(self) -> &'static str {
        match self {
            Shape::JoinGroup => "join_group",
            Shape::RangeGroup => "range_group",
            Shape::Point => "point",
        }
    }
}

/// One query of the rotation with its parameters.
#[derive(Debug, Clone, Copy)]
pub struct DssQuery {
    pub shape: Shape,
    /// `(lo, hi)` inclusive on `amount` for the range shapes; `(cust,
    /// cust)` for the point shape.
    pub lo: i64,
    pub hi: i64,
}

/// The expected answer of a [`DssQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Groups(Vec<GroupRow>),
    Rids(Vec<u32>),
}

/// `per_shape` instances of every shape, interleaved
/// join_group, range_group, point, join_group, ...
pub fn dss_rotation(star: &Star, per_shape: usize, seed: u64) -> Vec<DssQuery> {
    let mut rng = Rng::new(seed, 2);
    let span = star.amount.span();
    let width = span / 20;
    let customers = star.customer_id.len() as u64;
    let mut out = Vec::with_capacity(3 * per_shape);
    for _ in 0..per_shape {
        for shape in Shape::ALL {
            let q = match shape {
                Shape::Point => {
                    let c = rng.below(customers) as i64;
                    DssQuery {
                        shape,
                        lo: c,
                        hi: c,
                    }
                }
                _ => {
                    let lo = rng.below((span - width) as u64) as i64;
                    DssQuery {
                        shape,
                        lo,
                        hi: lo + width - 1,
                    }
                }
            };
            out.push(q);
        }
    }
    out
}

/// The RIDs of every customer's orders, ascending: the oracle for
/// `eq(cust, c)`.
#[derive(Debug, Clone)]
pub struct CustIndex {
    offsets: Vec<usize>,
    rids: Vec<u32>,
}

impl CustIndex {
    pub fn new(star: &Star) -> Self {
        let customers = star.customer_id.len();
        let mut offsets = vec![0usize; customers + 1];
        for &c in &star.cust {
            offsets[c as usize + 1] += 1;
        }
        for i in 0..customers {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut rids = vec![0u32; star.orders()];
        for (rid, &c) in star.cust.iter().enumerate() {
            rids[fill[c as usize]] = rid as u32;
            fill[c as usize] += 1;
        }
        Self { offsets, rids }
    }

    pub fn rids(&self, cust: i64) -> &[u32] {
        let c = cust as usize;
        &self.rids[self.offsets[c]..self.offsets[c + 1]]
    }
}

/// Reference answers, computed by scanning the generated arrays — an
/// oracle independent of the program's indexes and executor.
pub fn dss_reference(star: &Star, queries: &[DssQuery]) -> Vec<Expected> {
    let by_cust = CustIndex::new(star);
    let amount = &star.amount.values;
    queries
        .iter()
        .map(|q| match q.shape {
            Shape::Point => Expected::Rids(by_cust.rids(q.lo).to_vec()),
            Shape::JoinGroup => {
                let mut sums: BTreeMap<Value, i64> = BTreeMap::new();
                for (rid, &a) in amount.iter().enumerate() {
                    if a >= q.lo && a <= q.hi {
                        let region = REGIONS[star.region_of[star.cust[rid] as usize] as usize];
                        *sums.entry(Value::from(region)).or_default() += a;
                    }
                }
                Expected::Groups(groups(sums))
            }
            Shape::RangeGroup => {
                let mut sums: BTreeMap<Value, i64> = BTreeMap::new();
                for (rid, &a) in amount.iter().enumerate() {
                    if a >= q.lo && a <= q.hi {
                        *sums.entry(Value::Int(star.day[rid])).or_default() += a;
                    }
                }
                Expected::Groups(groups(sums))
            }
        })
        .collect()
}

/// Rows of `orders` whose amount lies in `lo..=hi`: the number of inner
/// probes a `join_group` query issues (every `cust` is a customer id).
pub fn rows_in_range(star: &Star, lo: i64, hi: i64) -> usize {
    star.amount
        .values
        .iter()
        .filter(|&&a| a >= lo && a <= hi)
        .count()
}

/// Probe values with their expected RID sets, in windows of `width`.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    pub values: Vec<Vec<Value>>,
    pub expected: Vec<Vec<Vec<u32>>>,
}

impl Windows {
    pub fn new(
        count: usize,
        width: usize,
        rng: &mut Rng,
        mut probe: impl FnMut(&mut Rng) -> (Value, Vec<u32>),
    ) -> Self {
        let mut w = Windows::default();
        for _ in 0..count {
            let (values, expected) = (0..width).map(|_| probe(rng)).unzip();
            w.values.push(values);
            w.expected.push(expected);
        }
        w
    }

    pub fn flat(&self) -> Vec<Value> {
        self.values.iter().flatten().cloned().collect()
    }
}

/// A uniform probe of a [`Distinct`] column, half of them misses.
pub fn distinct_probe(d: &Distinct, rng: &mut Rng) -> (Value, Vec<u32>) {
    let v = d.probe(rng);
    (Value::Int(v), d.rid(v).into_iter().collect())
}

fn groups(sums: BTreeMap<Value, i64>) -> Vec<GroupRow> {
    sums.into_iter()
        .map(|(group, value)| GroupRow { group, value })
        .collect()
}
