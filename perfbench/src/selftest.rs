//! Self-tests of the benchmark: each output check must fail on a
//! deliberately perturbed output, and the deterministic outputs must be
//! identical at one thread and at every core, and across two runs.

use elk::baselines::Design;
use elk::serve::RequestOutcome;
use elk::spec::{runner, SimulateReport};
use elk::units::Seconds;

use crate::bench::{load_pins, one_pass, Workload};
use crate::check::{
    check_point, check_requests, check_tenancy, static_gap, total_ms, Bulk, Digest, SplitBulk,
};
use crate::dse::{self, point_digest};
use crate::serve;

struct Outcomes(Vec<bool>);

impl Outcomes {
    fn expect(&mut self, what: &str, ok: bool) {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        self.0.push(ok);
    }
}

fn with(report: &SimulateReport, f: impl FnOnce(&mut SimulateReport)) -> SimulateReport {
    let mut r = report.clone();
    f(&mut r);
    r
}

fn row(r: &mut SimulateReport, d: Design) -> &mut elk::spec::report::DesignSimRow {
    r.designs
        .iter_mut()
        .find(|x| x.design == d)
        .expect("all five designs ran")
}

fn total(r: &SimulateReport, d: Design) -> f64 {
    total_ms(r, d).expect("all five designs ran")
}

fn point_checks(t: &mut Outcomes) -> Result<(), String> {
    let (base, grid) = dse::full_grid()?;
    let pins = load_pins("dse_sweep")?;
    // The first grid point that is feasible and meets every relation.
    let (key, report) = grid
        .iter()
        .find_map(|(key, ov)| {
            let spec = dse::point_spec(&base, key, ov).ok()?;
            let report = runner::run_simulate(&spec).ok()?;
            static_gap(&report).is_none().then(|| (key.clone(), report))
        })
        .ok_or("no feasible grid point")?;
    t.expect(
        &format!("{key}: relations and capacity hold"),
        check_point(&report, None).is_empty(),
    );
    let digest = point_digest(&Ok(report.clone()));
    t.expect(
        &format!("{key}: digest matches its pin"),
        pins.get(&key) == Some(&digest),
    );

    let (full, dyn_) = (
        total(&report, Design::ElkFull),
        total(&report, Design::ElkDyn),
    );
    let cases: [(&str, SimulateReport); 5] = [
        (
            "Ideal slower than ELK-Full",
            with(&report, |r| row(r, Design::Ideal).total_ms = full * 1.1),
        ),
        (
            "ELK-Full slower than ELK-Dyn",
            with(&report, |r| row(r, Design::ElkFull).total_ms = dyn_ * 1.1),
        ),
        (
            "ELK-Dyn slower than Basic",
            with(&report, |r| row(r, Design::Basic).total_ms = dyn_ / 1.1),
        ),
        (
            "ELK-Full slower than Static",
            with(&report, |r| row(r, Design::Static).total_ms = full / 1.1),
        ),
        (
            "a capacity violation",
            with(&report, |r| row(r, Design::Basic).capacity_violations = 1),
        ),
    ];
    for (what, bad) in &cases {
        t.expect(
            &format!("relation check catches {what}"),
            !check_point(bad, None).is_empty(),
        );
    }
    let gap = &cases[3].1;
    let ratio = full / total(gap, Design::Static);
    t.expect(
        "a pinned ELK-Full/Static gap waives that relation up to its seed ratio",
        check_point(gap, Some(ratio)).is_empty(),
    );
    t.expect(
        "relation check catches a pinned gap that grew",
        !check_point(gap, Some(ratio * 0.99)).is_empty(),
    );
    t.expect(
        "a pinned gap waives no other relation",
        !check_point(&cases[0].1, Some(2.0)).is_empty(),
    );
    let nudged = with(&report, |r| {
        let u = &mut row(r, Design::ElkFull).hbm_util;
        *u = f64::from_bits(u.to_bits() + 1);
    });
    t.expect(
        "digest check catches a one-ulp change",
        point_digest(&Ok(nudged)) != digest,
    );
    Ok(())
}

fn request_checks(t: &mut Outcomes) -> Result<(), String> {
    let (trace, mut plain, mut tenancy, protected) = serve::sample_runs(300)?;
    let n = trace.len();
    let bulk = plain.take_bulk();
    let base = bulk.outcomes;
    t.expect(
        "conservation and causality hold on a clean run",
        check_requests("cluster", &trace, &base, n).is_empty(),
    );
    let ms = Seconds::from_millis(1.0);
    type Perturb = Box<dyn Fn(&mut Vec<RequestOutcome>)>;
    let perturbed: [(&str, Perturb); 5] = [
        ("a request completed twice", Box::new(|o| o[1] = o[0])),
        (
            "a lost request",
            Box::new(|o| {
                o.pop();
            }),
        ),
        (
            "a first token before arrival",
            Box::new(move |o| o[3].first_token = o[3].arrival - ms),
        ),
        (
            "a completion before the first token",
            Box::new(move |o| o[4].completion = o[4].first_token - ms),
        ),
        ("a moved arrival", Box::new(move |o| o[5].arrival += ms)),
    ];
    for (what, f) in &perturbed {
        let mut o = base.clone();
        f(&mut o);
        t.expect(
            &format!("request check catches {what}"),
            !check_requests("cluster", &trace, &o, n).is_empty(),
        );
    }

    let tb = tenancy.take_bulk();
    let completed = tenancy.admitted + tenancy.deferred;
    t.expect(
        "tenancy bookkeeping holds on a clean run",
        check_tenancy(&tenancy, &tb.outcomes, &protected).is_empty()
            && check_requests("tenancy", &trace, &tb.outcomes, completed).is_empty(),
    );
    // A request of an unsheddable class is lost and booked as rejected:
    // every count still balances.
    let mut lost = tenancy.clone();
    let mut kept = tb.outcomes.clone();
    let i = kept
        .iter()
        .position(|o| protected[o.id as usize])
        .ok_or("no request of an unsheddable class completed")?;
    kept.remove(i);
    lost.base.completed -= 1;
    lost.admitted -= 1;
    lost.rejected += 1;
    t.expect(
        "tenancy check catches a lost unsheddable request with balanced counts",
        check_requests("tenancy", &trace, &kept, lost.admitted + lost.deferred).is_empty()
            && !check_tenancy(&lost, &kept, &protected).is_empty(),
    );
    tenancy.admitted += 1;
    t.expect(
        "tenancy check catches an arrival counted twice",
        !check_tenancy(&tenancy, &tb.outcomes, &protected).is_empty(),
    );

    let digest = |outcomes: &[RequestOutcome]| {
        let mut d = Digest::default();
        d.serialized(&plain);
        d.bulk(&Bulk {
            outcomes: outcomes.to_vec(),
            queue_depth: bulk.queue_depth.clone(),
        });
        d.hex()
    };
    let mut nudged = base.clone();
    nudged[7].completion += Seconds::new(1e-12);
    t.expect(
        "digest check catches a picosecond change",
        digest(&base) != digest(&nudged),
    );
    Ok(())
}

fn determinism(t: &mut Outcomes) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    type Make = fn(usize) -> Result<Box<dyn Workload>, String>;
    let workloads: [(&str, Make); 3] = [
        ("dse_sweep (8 points)", |th| {
            Ok(Box::new(dse::DseSweep::new(7, th, Some(8))?))
        }),
        ("serve_scale (20k requests)", |th| {
            Ok(Box::new(serve::ServeScale::new(5, th, Some(20_000))?))
        }),
        ("serve_engines_mix (3k requests)", |th| {
            Ok(Box::new(serve::EnginesMix::new(3, th, Some(3_000))?))
        }),
    ];
    for (name, make) in workloads {
        let one = one_pass(make(1)?)?;
        let (failures, one) = (one.failures, one.digest);
        let all = one_pass(make(cores)?)?.digest;
        let again = one_pass(make(cores)?)?.digest;
        t.expect(
            &format!("{name}: outputs pass every check"),
            failures.is_empty(),
        );
        t.expect(
            &format!("{name}: same outputs at 1 and {cores} threads"),
            one == all,
        );
        t.expect(
            &format!("{name}: same outputs across two runs"),
            all == again,
        );
        for f in failures.iter().take(5) {
            println!("     {f}");
        }
    }
    Ok(())
}

pub fn run() -> Result<bool, String> {
    let mut t = Outcomes(Vec::new());
    point_checks(&mut t)?;
    request_checks(&mut t)?;
    determinism(&mut t)?;
    let failed = t.0.iter().filter(|ok| !**ok).count();
    println!("self-test: {} checks, {failed} failed", t.0.len());
    Ok(failed == 0)
}
