//! Seeded workload generator: the registry and the query texts.
//!
//! The program under test receives only what this module builds: a
//! `ServiceRegistry` assembled through the public `seco-model` and
//! `seco-services` constructors, and query texts in the chapter's
//! syntax. The seed varies the service data, the query literals, the
//! ranking weights and the order in which queries are drawn. The query
//! *shapes* and the per-service parameters (cardinality, chunk size,
//! `Link` domain width, score decay) form a fixed menu, so two seeds
//! exercise the same layers with the same expected cost and the spread
//! between seeds stays small.
//!
//! Every service is registered behind a [`TimedService`], which times
//! the real fetches that reach it.

use std::sync::Arc;

use seco_model::{
    Adornment, AttributeDef, AttributePath, DataType, ScoreDecay, ServiceInterface, ServiceKind,
    ServiceSchema, ServiceStats,
};
use seco_services::domains::{entertainment, travel};
use seco_services::{DomainMap, Service, ServiceRegistry, SyntheticService, ValueDomain};

use crate::probe::{Probe, TimedService};

/// SplitMix64: a small, seedable generator, so the inputs depend on
/// nothing but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// `n` distinct indices below `len`.
    pub fn distinct(&mut self, n: usize, len: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let i = self.below(len);
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }

    /// `n` ranking weights in `[0.1, 1.0]`, two decimals.
    pub fn weights(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| (10 + self.below(91)) as f64 / 100.0)
            .collect()
    }
}

/// A draw order in which index `i` appears `counts[i]` times, shuffled.
/// Cycling through it gives every stretch of a run the mix's exact
/// proportions, so a percentile never moves because one run happened
/// to draw more of a cheap shape than another.
pub fn schedule(counts: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
        .collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Derives an independent stream for one purpose from the run seed.
pub fn stream(seed: u64, purpose: u64) -> Rng {
    let mut r = Rng::new(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
    r.next_u64();
    r
}

/// One generated search service: the axes the registry varies.
struct GenSpec {
    name: &'static str,
    cardinality: f64,
    chunk: usize,
    link_width: u64,
    decay: ScoreDecay,
}

const STEP: ScoreDecay = ScoreDecay::Step {
    h: 2,
    high: 0.9,
    low: 0.2,
};
const EXP: ScoreDecay = ScoreDecay::Exponential { lambda: 0.05 };

/// The generated marts. Chunks of 16–32 tuples make each tile join
/// compare hundreds of pairs, so the hash index and the batch predicate
/// kernels fire; the `Link` width sets the equi-join selectivity.
const GENERATED: [GenSpec; 12] = [
    spec("Alpha", 64.0, 32, 16, ScoreDecay::Linear),
    spec("Beta", 64.0, 32, 16, ScoreDecay::Quadratic),
    spec("Gamma", 48.0, 16, 12, ScoreDecay::Linear),
    spec("Delta", 48.0, 16, 24, STEP),
    spec("Epsilon", 32.0, 16, 8, EXP),
    spec("Zeta", 64.0, 32, 24, ScoreDecay::Linear),
    spec("Eta", 32.0, 8, 12, ScoreDecay::Quadratic),
    spec("Theta", 48.0, 32, 16, STEP),
    spec("Iota", 64.0, 16, 8, EXP),
    spec("Kappa", 32.0, 32, 24, ScoreDecay::Linear),
    spec("Lambda", 48.0, 8, 16, ScoreDecay::Quadratic),
    spec("Mu", 64.0, 16, 12, STEP),
];

const fn spec(
    name: &'static str,
    cardinality: f64,
    chunk: usize,
    link_width: u64,
    decay: ScoreDecay,
) -> GenSpec {
    GenSpec {
        name,
        cardinality,
        chunk,
        link_width,
        decay,
    }
}

fn generated_interface(i: usize, s: &GenSpec) -> ServiceInterface {
    let name = format!("{}1", s.name);
    let schema = ServiceSchema::new(
        name.clone(),
        vec![
            AttributeDef::atomic("Key", DataType::Text, Adornment::Input),
            AttributeDef::atomic("Link", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Hop", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Payload", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
        ],
    )
    .expect("static schema is valid");
    let response_ms = 30.0 + 10.0 * (i % 5) as f64;
    ServiceInterface::new(
        name,
        s.name,
        schema,
        ServiceKind::Search,
        ServiceStats::new(s.cardinality, s.chunk, response_ms, 1.0)
            .expect("static stats are valid"),
        s.decay,
    )
    .expect("static interface is valid")
    .with_hint(AttributePath::atomic("Link"), s.link_width)
    .with_hint(AttributePath::atomic("Hop"), s.link_width)
}

/// Builds the registry of one run: the chapter's entertainment and
/// travel domains plus the generated marts, every service behind a
/// timing wrapper reporting to `probe`. The same seed builds the same
/// registry, so a reference registry can be built beside the measured
/// one.
pub fn build_registry(seed: u64, probe: &Arc<Probe>) -> ServiceRegistry {
    let mut services: Vec<SyntheticService> = Vec::new();
    let data = |salt: u64| seed.wrapping_mul(0x100_0000_01B3) ^ salt;

    // Entertainment (§3.1, §5.6): the running example's three services,
    // with the value domains that make the declared selectivities hold.
    let title = ValueDomain::new("title", entertainment::TITLE_DOMAIN);
    let city = ValueDomain::new("city", 8);
    let country = ValueDomain::new("country", 3);
    let u = AttributePath::atomic;
    services.push(
        SyntheticService::new(
            entertainment::movie_interface(),
            DomainMap::new().with(u("Title"), title.clone()),
            data(0x01),
        )
        .with_rows_per_group(2),
    );
    services.push(
        SyntheticService::new(
            entertainment::theatre_interface(),
            DomainMap::new()
                .with(AttributePath::sub("Movie", "Title"), title)
                .with(u("TCity"), city.clone())
                .with(u("TCountry"), country.clone()),
            data(0x02),
        )
        .with_rows_per_group(1)
        .with_mirror(u("TCity"), u("UCity"))
        .with_mirror(u("TCountry"), u("UCountry")),
    );
    services.push(
        SyntheticService::new(
            entertainment::restaurant_interface(),
            DomainMap::new()
                .with(u("RCity"), city)
                .with(u("RCountry"), country),
            data(0x03),
        )
        .with_empty_rate(1.0 - entertainment::DINNER_SELECTIVITY)
        .with_mirror(u("RCity"), u("UCity"))
        .with_mirror(u("RCountry"), u("UCountry")),
    );

    // Travel (Fig. 2): conference, weather, flight, hotel.
    let cities = ValueDomain::new("city", travel::CITY_DOMAIN);
    services.push(SyntheticService::new(
        travel::conference_interface(),
        DomainMap::new().with(u("City"), cities),
        data(0x11),
    ));
    services.push(SyntheticService::new(
        travel::weather_interface(),
        DomainMap::new().with(u("AvgTemp"), ValueDomain::new("temp", 41)),
        data(0x12),
    ));
    services.push(SyntheticService::new(
        travel::flight_interface(),
        DomainMap::new(),
        data(0x13),
    ));
    services.push(SyntheticService::new(
        travel::hotel_interface(),
        DomainMap::new(),
        data(0x14),
    ));

    // Generated marts: `Link` and `Hop` draw from one shared domain, so
    // any `Link`/`Hop` pair of two marts is joinable.
    for (i, s) in GENERATED.iter().enumerate() {
        let link = ValueDomain::new("link", s.link_width);
        services.push(SyntheticService::new(
            generated_interface(i, s),
            DomainMap::new()
                .with(u("Link"), link.clone())
                .with(u("Hop"), link),
            data(0x100 + i as u64),
        ));
    }

    let mut reg = ServiceRegistry::new();
    for s in services {
        let inner: Arc<dyn Service> = Arc::new(s);
        reg.register_service(Arc::new(TimedService::new(inner, probe.clone())))
            .expect("generated service names are unique");
    }
    for p in [
        entertainment::shows_pattern(),
        entertainment::dinner_place_pattern(),
        travel::forecast_pattern(),
        travel::reached_by_pattern(),
        travel::stay_at_pattern(),
        travel::same_trip_pattern(),
    ] {
        reg.register_pattern(p).expect("pattern names are unique");
    }
    reg
}

/// Query shapes the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The chapter's running example (Movie ⋈ Theatre → Restaurant).
    Running,
    /// The travel trip query of Fig. 2 (Conference, Weather, Flight,
    /// Hotel over four connection patterns).
    Trip,
    /// A hub joined to `n − 1` spokes on `Link`.
    Star(usize),
    /// `n` atoms, each one's `Hop` joined to the next one's `Link`.
    Chain(usize),
    /// A star whose first two spokes carry one more atom each on `Hop`
    /// (4 or 5 atoms).
    Snowflake(usize),
}

impl Shape {
    pub fn atoms(self) -> usize {
        match self {
            Shape::Running => 3,
            Shape::Trip => 4,
            Shape::Star(n) | Shape::Chain(n) | Shape::Snowflake(n) => n,
        }
    }

    /// Label used to group counters by shape family.
    pub fn family(self) -> &'static str {
        match self {
            Shape::Running => "running",
            Shape::Trip => "trip",
            Shape::Star(_) => "star",
            Shape::Chain(_) => "chain",
            Shape::Snowflake(_) => "snowflake",
        }
    }
}

/// One generated query: its text and what the liquid operations after
/// it send.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub shape: Shape,
    pub text: String,
    pub k: usize,
    /// Weights the `rerank` operation sends (one per atom).
    pub rerank: Vec<f64>,
}

fn ranking_clause(w: &[f64]) -> String {
    let parts: Vec<String> = w.iter().map(|x| format!("{x:.2}")).collect();
    format!("ranking ({})", parts.join(", "))
}

/// Generates one query of `shape`. `tag` makes the literals distinct:
/// two calls with different tags give different constant selections
/// (and so different plan-cache fingerprints and fetch requests).
///
/// With a `slot`, the generated marts and `k` are fixed by the slot
/// rather than drawn, so a query pool keeps the same costs under every
/// seed; only literals and weights vary.
pub fn query(shape: Shape, rng: &mut Rng, tag: &str, slot: Option<usize>) -> QuerySpec {
    let n = shape.atoms();
    let weights = rng.weights(n);
    let rerank = rng.weights(n);
    let k = match slot {
        Some(s) => [5, 10][s % 2],
        None => *rng.pick(&[5usize, 10]),
    };
    let body = match shape {
        Shape::Running => {
            let genre = rng.pick(&["comedy", "drama", "action", "thriller"]);
            let country = rng.below(3);
            let month = 1 + rng.below(6);
            let address = rng.pick(&["via Golgi 42", "piazza Leonardo 32", "corso Como 5"]);
            let city = rng.pick(&["Milano", "Torino", "Roma"]);
            let category = rng.pick(&["pizzeria", "trattoria", "sushi"]);
            let lang = rng.pick(&["en", "it", "fr"]);
            format!(
                "Select Movie1 As M, Theatre1 as T, Restaurant1 as R where Shows(M,T) and \
                 DinnerPlace(T,R) and M.Genres.Genre=\"{genre}\" and \
                 M.Openings.Country=\"country-{country}\" and M.Openings.Date>2009-0{month}-01 and \
                 M.Language=\"{lang}\" and T.UAddress=\"{address}{tag}\" and T.UCity=\"{city}\" and \
                 T.UCountry=\"country-{country}\" and T.TCountry=\"country-{country}\" and \
                 R.Category.Name=\"{category}\""
            )
        }
        Shape::Trip => {
            let topic = rng.pick(&["databases", "ml", "systems", "web", "theory"]);
            let temp = 18 + rng.below(9);
            format!(
                "Select Conference1 As C, Weather1 As W, Flight1 As F, Hotel1 As H where \
                 Forecast(C,W) and ReachedBy(C,F) and StayAt(C,H) and SameTrip(F,H) and \
                 C.Topic=\"{topic}{tag}\" and W.AvgTemp>{temp}"
            )
        }
        Shape::Star(_) | Shape::Chain(_) | Shape::Snowflake(_) => {
            // A stride of 7 is coprime with the 12 marts: distinct picks.
            let picks = match slot {
                Some(s) => (0..n).map(|m| (5 * s + 7 * m) % GENERATED.len()).collect(),
                None => rng.distinct(n, GENERATED.len()),
            };
            let atoms: Vec<String> = picks
                .iter()
                .enumerate()
                .map(|(a, &i)| format!("{}1 As A{}", GENERATED[i].name, a + 1))
                .collect();
            let mut conds: Vec<String> = match shape {
                Shape::Star(_) => (2..=n).map(|a| format!("A1.Link=A{a}.Link")).collect(),
                Shape::Chain(_) => (1..n)
                    .map(|a| format!("A{a}.Hop=A{}.Link", a + 1))
                    .collect(),
                _ => {
                    let mut c = vec!["A1.Link=A2.Link".to_owned(), "A1.Link=A3.Link".to_owned()];
                    c.push("A2.Hop=A4.Link".to_owned());
                    if n == 5 {
                        c.push("A3.Hop=A5.Link".to_owned());
                    }
                    c
                }
            };
            for a in 1..=n {
                conds.push(format!("A{a}.Key=\"k{}{tag}\"", rng.below(1000)));
            }
            format!("Select {} where {}", atoms.join(", "), conds.join(" and "))
        }
    };
    QuerySpec {
        shape,
        text: format!("{body} {} top {k}", ranking_clause(&weights)),
        k,
        rerank,
    }
}
