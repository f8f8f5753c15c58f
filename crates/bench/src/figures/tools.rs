//! Figs. 4–7: measurement-tool validation. CLI vs Web on Linux, the
//! Windows noise regimes, and the 1-vs-2-round-trip semantics.

use crate::render::render_scatter;
use crate::scale::CrowdContext;
use atlas::{Browser, CliTool, MeasurementOs, WebTool};
use geokit::regress::{ols_line, r_squared};
use netsim::FilterPolicy;
use simrng::rngs::StdRng;
use simrng::SeedableRng;
use std::fmt::Write as _;

/// Samples of (distance, rtt) labelled with tool and true round trips.
struct ToolRun {
    label: &'static str,
    one_rt: Vec<(f64, f64)>,
    two_rt: Vec<(f64, f64)>,
}

fn run_tools(
    ctx: &mut CrowdContext,
    os: MeasurementOs,
    browsers: &[Browser],
    include_cli: bool,
) -> Vec<ToolRun> {
    let client_loc = geokit::GeoPoint::new(50.06, 8.6); // near Frankfurt
    let client = ctx.world.attach_host(client_loc, FilterPolicy::default());
    let mut rng = StdRng::seed_from_u64(0x7001);
    let mut runs = Vec::new();

    if include_cli {
        let mut one = Vec::new();
        for lm in ctx.constellation.landmarks() {
            if let Some(s) = CliTool.measure(ctx.world.network_mut(), client, lm.node) {
                one.push((client_loc.distance_km(&lm.location), s.rtt_ms));
            }
        }
        runs.push(ToolRun {
            label: "CLI",
            one_rt: one,
            two_rt: Vec::new(),
        });
    }
    for &browser in browsers {
        let tool = WebTool { os, browser };
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for lm in ctx.constellation.landmarks() {
            if let Some(s) = tool.measure(ctx.world.network_mut(), client, lm.node, &mut rng) {
                let d = client_loc.distance_km(&lm.location);
                if s.true_round_trips == 1 {
                    one.push((d, s.rtt_ms));
                } else {
                    two.push((d, s.rtt_ms));
                }
            }
        }
        let label = match browser {
            Browser::Chrome => "Chrome 68",
            Browser::FirefoxEsr => "Firefox 52",
            Browser::Firefox => "Firefox 61",
            Browser::Edge => "Edge 17",
        };
        runs.push(ToolRun {
            label,
            one_rt: one,
            two_rt: two,
        });
    }
    runs
}

fn summarize(out: &mut String, runs: &[ToolRun]) {
    for run in runs {
        for (group, pts) in [("1rt", &run.one_rt), ("2rt", &run.two_rt)] {
            if pts.len() < 3 {
                continue;
            }
            let line = ols_line(pts).expect("≥3 points");
            let r2 = r_squared(pts, |x| line.eval(x));
            let _ = writeln!(
                out,
                "# {} [{group}]: slope {:.5} ms/km  intercept {:.2} ms  R² {:.4}  n {}",
                run.label,
                line.slope,
                line.intercept,
                r2,
                pts.len()
            );
        }
        if let (Some(l1), Some(l2)) = (ols_line(&run.one_rt), ols_line(&run.two_rt)) {
            let _ = writeln!(
                out,
                "# {}: slope ratio 2rt/1rt = {:.2} (paper: 1.96 Linux, 2.29 Windows)",
                run.label,
                l2.slope / l1.slope
            );
        }
    }
}

/// Fig. 4: CLI vs Web tool under Linux — two clean slope groups, ratio ≈ 2.
pub fn fig4_tools_linux(ctx: &mut CrowdContext) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Fig.4: CLI vs Web tool, Linux client");
    let runs = run_tools(
        ctx,
        MeasurementOs::Linux,
        &[Browser::Chrome, Browser::FirefoxEsr],
        true,
    );
    summarize(&mut out, &runs);
    for run in &runs {
        out.push_str(&render_scatter(
            &format!("{} one-round-trip", run.label),
            "distance_km,rtt_ms",
            &run.one_rt,
        ));
        if !run.two_rt.is_empty() {
            out.push_str(&render_scatter(
                &format!("{} two-round-trip", run.label),
                "distance_km,rtt_ms",
                &run.two_rt,
            ));
        }
    }
    out
}

/// Figs. 5–6: the Web tool under Windows — noisier groups plus
/// browser-dependent high outliers (split out as in Fig. 6).
pub fn fig5_fig6_tools_windows(ctx: &mut CrowdContext) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Fig.5/6: Web tool, Windows client, four browsers");
    let runs = run_tools(ctx, MeasurementOs::Windows, &Browser::ALL, false);
    // Split high outliers (Fig. 6): points far above any plausible
    // two-round-trip time.
    let mut cleaned_runs = Vec::new();
    for run in runs {
        let split = |pts: &[(f64, f64)]| {
            let (mut clean, mut outliers) = (Vec::new(), Vec::new());
            for &(d, t) in pts {
                // Anything above 2 × (fibre time + generous overhead) is
                // a client-side stall, not a network time.
                if t > 2.0 * (d / 100.0) + 300.0 {
                    outliers.push((d, t));
                } else {
                    clean.push((d, t));
                }
            }
            (clean, outliers)
        };
        let (one_clean, one_out) = split(&run.one_rt);
        let (two_clean, two_out) = split(&run.two_rt);
        let outliers: Vec<(f64, f64)> = one_out.into_iter().chain(two_out).collect();
        if !outliers.is_empty() {
            let mean: f64 = outliers.iter().map(|p| p.1).sum::<f64>() / outliers.len() as f64;
            let _ = writeln!(
                out,
                "# {}: {} high outliers, mean {:.0} ms (browser-dependent, Fig. 6)",
                run.label,
                outliers.len(),
                mean
            );
            out.push_str(&render_scatter(
                &format!("{} high outliers", run.label),
                "distance_km,rtt_ms",
                &outliers,
            ));
        }
        cleaned_runs.push(ToolRun {
            label: run.label,
            one_rt: one_clean,
            two_rt: two_clean,
        });
    }
    summarize(&mut out, &cleaned_runs);
    out
}

/// Fig. 7: the tool semantics — one round trip to a port-80-closed
/// landmark, two to an open one, demonstrated end to end on the DES.
pub fn fig7_tool_semantics(ctx: &mut CrowdContext) -> String {
    let mut out = String::new();
    let client = ctx
        .world
        .attach_host(geokit::GeoPoint::new(50.06, 8.6), FilterPolicy::default());
    let open = ctx
        .constellation
        .landmarks()
        .iter()
        .find(|l| l.port_80_open)
        .expect("an open-80 landmark");
    let closed = ctx
        .constellation
        .landmarks()
        .iter()
        .find(|l| !l.port_80_open)
        .expect("a closed-80 landmark");
    let mut rng = StdRng::seed_from_u64(0x707);
    let tool = WebTool {
        os: MeasurementOs::Linux,
        browser: Browser::Chrome,
    };
    let _ = writeln!(out, "# Fig.7: TCP-handshake measurement semantics");
    for (name, lm) in [("port-80 OPEN", open), ("port-80 CLOSED", closed)] {
        let cli = CliTool
            .measure(ctx.world.network_mut(), client, lm.node)
            .expect("reachable");
        let web = tool
            .measure(ctx.world.network_mut(), client, lm.node, &mut rng)
            .expect("reachable");
        let _ = writeln!(
            out,
            "{name}: CLI connect() = {:.2} ms ({} round trip); web fetch failure = {:.2} ms ({} round trips)",
            cli.rtt_ms, cli.true_round_trips, web.rtt_ms, web.true_round_trips
        );
    }
    let _ = writeln!(
        out,
        "# The web tool cannot tell which case it measured (§4.2)."
    );
    // A real packet dump of one handshake (the probe walk's trace).
    let _ = writeln!(out, "# packet trace of one connect() to the open landmark:");
    let (trace, rtt) = ctx
        .world
        .network_mut()
        .trace_tcp_connect(client, open.node, 80);
    // Timestamps relative to the probe's injection (the persistent sim
    // clock no longer starts each probe at t = 0).
    let t0 = trace.first().map_or(netsim::SimTime::ZERO, |e| e.at);
    for e in &trace {
        let _ = writeln!(
            out,
            "#   t={:>9.3} ms  node {:>5}  {:<24} {}",
            e.at.since(t0).as_ms(),
            e.node,
            format!("{:?}", e.kind),
            if e.delivered {
                "(delivered)"
            } else {
                "(forwarded)"
            }
        );
    }
    if let Some(rtt) = rtt {
        let _ = writeln!(out, "#   handshake completed in {rtt}");
    }
    out
}
