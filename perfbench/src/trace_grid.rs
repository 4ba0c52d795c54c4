//! `trace_grid`: loads a 216-market `.stl` archive (12 types x 18 zones
//! x 183 days) with `TraceLibrary::read_stl`, then runs the mapping x
//! mechanism grid through `core::sim::run_policy` for every zone.
//!
//! Exercises archive decode, `TraceCursor` and the analytic pool walk
//! behind Fig 10-12. Uses no event queue, no controller and no daemon:
//! the "no change expected" workload for queue, controller and service
//! changes.

use std::path::PathBuf;
use std::time::Instant;

use spotcheck_core::policy::MappingPolicy;
use spotcheck_core::sim::{run_policy, PolicyExperiment};
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_simcore::digest::Digest64;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::time::SimDuration;
use spotcheck_spotmarket::archive::TraceLibrary;
use spotcheck_spotmarket::generator::generate_fleet;
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::profiles::{catalog, standard_zones};
use spotcheck_spotmarket::trace::PriceTrace;

use crate::{Cx, PassOut, Size, Workload};

/// Outcome digests at full size, one per seed (see `--digest`).
const PINS: &[(u64, u64)] = &[
    (1, 0x59e78b9b87cb0a64),
    (2, 0x25761f98477f4a91),
    (3, 0x1da6a2f809690d38),
    (4, 0xfd2647e06224a5e2),
    (5, 0x065fd61a0f61432a),
    (6, 0xafd95a4b61f9dca6),
    (7, 0xd11cb2b20206c964),
    (8, 0xa95adc9172aa9474),
    (9, 0x07d1c4471fdef289),
    (10, 0xcc6dc813d6e3062a),
    (11, 0x230aea3e489dccec),
    (12, 0x4ddd7296fe070057),
    (13, 0xb3969a1cba6ea70d),
    (14, 0x5a8a24f6b01c4b21),
    (15, 0x93c9f2ef9c82f6c7),
    (16, 0xc8d872f7e19bbf01),
];

const MECHANISMS: [MechanismKind; 5] = [
    MechanismKind::XenLive,
    MechanismKind::UnoptimizedFull,
    MechanismKind::SpotCheckFull,
    MechanismKind::UnoptimizedLazy,
    MechanismKind::SpotCheckLazy,
];

pub struct TraceGrid {
    types: usize,
    zones: usize,
    days: u64,
}

impl TraceGrid {
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => TraceGrid {
                types: 12,
                zones: 18,
                days: 183,
            },
            Size::Tiny => TraceGrid {
                types: 4,
                zones: 2,
                days: 14,
            },
        }
    }
}

/// The generated fleet (kept for the point-exact load check) and the
/// archive written from it.
pub struct Archive {
    generated: Vec<PriceTrace>,
    path: PathBuf,
    bytes: u64,
}

impl Drop for Archive {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Workload for TraceGrid {
    type State = Archive;
    const SETUP_EVERY_PASS: bool = false;

    fn setup(&self, cx: &mut Cx) -> Archive {
        let types = catalog();
        // Zone-major order, so each zone's markets are one contiguous run.
        let markets: Vec<_> = standard_zones()
            .into_iter()
            .take(self.zones)
            .flat_map(|zone| {
                types
                    .iter()
                    .take(self.types)
                    .map(move |e| (MarketId::new(e.type_name.as_str(), zone), e.profile.clone()))
            })
            .collect();
        let open = cx.tr.begin("generator.fleet");
        let root = SimRng::seed(cx.seed).fork_named("trace_grid");
        let generated = generate_fleet(&markets, SimDuration::from_days(self.days), &root);
        cx.tr.end(open);
        let path = cx.work.join("library.stl");
        let open = cx.tr.begin("archive.write");
        let lib = TraceLibrary::new(generated).expect("market ids are distinct");
        lib.write_stl(&path).expect("write .stl archive");
        cx.tr.end(open);
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        Archive {
            generated: lib.into_traces(),
            path,
            bytes,
        }
    }

    fn pass(&self, a: &mut Archive, cx: &mut Cx) -> PassOut {
        let mut out = PassOut::default();
        let mut d = Digest64::new();
        let pass = cx.tr.begin("pass");
        let t0 = Instant::now();
        let open = cx.tr.begin("archive.load");
        let t_load = Instant::now();
        let loaded = TraceLibrary::read_stl(&a.path);
        let load_s = t_load.elapsed().as_secs_f64();
        cx.tr.end(open);
        let lib = match loaded {
            Ok(lib) => lib,
            Err(e) => {
                cx.tr.end(pass);
                cx.checks
                    .expect(false, || format!("trace_grid: archive load failed: {e}"));
                return out;
            }
        };
        let grid = cx.tr.begin("sim.grid");
        let t_grid = Instant::now();
        for zone in lib.traces().chunks(self.types) {
            for mapping in MappingPolicy::ALL {
                for mechanism in MECHANISMS {
                    let mut exp = PolicyExperiment::paper_default(mapping, mechanism, cx.seed);
                    exp.horizon = SimDuration::from_days(self.days);
                    let open = cx.tr.begin("sim.policy_cell");
                    let t = Instant::now();
                    let r = run_policy(zone, &exp);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    cx.tr.end(open);
                    out.samples.push(("sim.policy_cell", ms));
                    d.write_f64(r.avg_cost_per_vm_hr);
                    d.write_f64(r.availability_pct);
                    d.write_f64(r.degradation_pct);
                    d.write_f64(r.revocations_per_vm);
                }
            }
        }
        let grid_s = t_grid.elapsed().as_secs_f64();
        cx.tr.end(grid);
        out.wall_s = t0.elapsed().as_secs_f64();
        cx.tr.end(pass);

        // The archive load and every grid cell are operations.
        cx.checks.ok(1 + out.samples.len() as u64);
        // Point-exact check of the load against the generated fleet.
        let exact = lib.len() == a.generated.len()
            && lib.traces().iter().zip(&a.generated).all(|(x, y)| {
                x.market == y.market
                    && x.on_demand_price.to_bits() == y.on_demand_price.to_bits()
                    && x.prices.points() == y.prices.points()
            });
        cx.checks.expect(exact, || {
            "trace_grid: loaded archive differs from the generated fleet".to_string()
        });
        cx.checks.digest(d.finish(), cx.seed, cx.size, PINS);

        let points = lib.total_points() as f64;
        out.scalars = vec![
            ("archive.load_s", load_s),
            ("archive.points", points),
            ("archive.bytes", a.bytes as f64),
            ("archive.load_mpts_per_s", points / load_s * 1e-6),
            ("sim.cells", out.samples.len() as f64),
            ("sim.grid_s", grid_s),
        ];
        out
    }
}
