//! Runs every table/figure reproduction in order.
type Job = fn(dsb_experiments::Scale) -> String;

#[expect(
    clippy::disallowed_types,
    reason = "CLI progress reporting; never feeds simulated state"
)]
fn main() {
    let scale = dsb_experiments::Scale::from_env();
    let jobs: Vec<(&str, Job)> = vec![
        ("table01", dsb_experiments::table01::run),
        ("fig03", dsb_experiments::fig03::run),
        ("fig09", dsb_experiments::fig09::run),
        ("fig10", dsb_experiments::fig10::run),
        ("fig11", dsb_experiments::fig11::run),
        ("fig12", dsb_experiments::fig12::run),
        ("fig13", dsb_experiments::fig13::run),
        ("fig14", dsb_experiments::fig14::run),
        ("fig15", dsb_experiments::fig15::run),
        ("fig16", dsb_experiments::fig16::run),
        ("fig17", dsb_experiments::fig17::run),
        ("fig18", dsb_experiments::fig18::run),
        ("fig19", dsb_experiments::fig19::run),
        ("fig20", dsb_experiments::fig20::run),
        ("fig21", dsb_experiments::fig21::run),
        ("fig22", dsb_experiments::fig22::run),
        ("extras", dsb_experiments::extras::run),
    ];
    for (name, f) in jobs {
        let t0 = std::time::Instant::now();
        println!("##### {name} #####");
        print!("{}", f(scale));
        println!("({name} took {:.1}s)\n", t0.elapsed().as_secs_f64());
    }
}
