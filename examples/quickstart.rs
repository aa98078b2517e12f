//! Quickstart: build a platform, describe an application, admit it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use kairos::app::{ApplicationBuilder, Constraint, Implementation, TaskRole};
use kairos::core::{CostPolicy, Kairos, KairosConfig};
use kairos::platform::{topology, ElementKind, ResourceVector};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The platform: the CRISP General Stream Processor of the paper —
    //    an FPGA, five packages of 9 DSPs + 2 memories + 1 test unit, and
    //    an ARM host (62 elements, 45 DSPs).
    let platform = topology::crisp();
    println!("platform: {platform}");

    // 2. The application: a small software-radio pipeline. Every task names
    //    one or more implementations (element kind + resource vector +
    //    worst-case cycles + energy); channels carry bandwidth demands.
    let fpga_frontend =
        Implementation::new(ElementKind::Fpga, ResourceVector::new(100, 32, 2500, 2), 180, 22);
    let dsp_filter =
        Implementation::new(ElementKind::Dsp, ResourceVector::new(650, 24, 0, 0), 140, 9);
    let arm_decoder =
        Implementation::new(ElementKind::Arm, ResourceVector::new(350, 256, 0, 1), 300, 14);
    let dsp_decoder =
        Implementation::new(ElementKind::Dsp, ResourceVector::new(820, 40, 0, 0), 220, 18);

    let mut radio = ApplicationBuilder::new("fm-radio");
    let adc = radio.add_task("adc", TaskRole::Input, vec![fpga_frontend]);
    let chan = radio.add_task("channelize", TaskRole::Internal, vec![dsp_filter]);
    let demod = radio.add_task("demodulate", TaskRole::Internal, vec![dsp_filter]);
    // The decoder ships two implementations; binding picks the cheaper
    // feasible one ("multiple implementations may be provided by different
    // IP manufacturers").
    let dec = radio.add_task("decode", TaskRole::Output, vec![arm_decoder, dsp_decoder]);
    radio.add_channel(adc, chan, 180, 1);
    radio.add_channel(chan, demod, 120, 1);
    radio.add_channel(demod, dec, 90, 1);
    radio.add_constraint(Constraint::Throughput { max_period_cycles: 5_000 });
    let radio = radio.build()?;
    println!("application: {radio}");

    // 3. The resource manager: binding -> mapping -> routing -> validation,
    //    tens of microseconds on a modern host (tens of milliseconds on the
    //    paper's 200 MHz ARM).
    let mut kairos = Kairos::new(platform, KairosConfig::with_policy(CostPolicy::Both));
    let report = kairos.admit(&radio)?;

    println!("\nadmitted as {}:", report.app_id);
    // Wall-clock phase times go to stderr: stdout stays byte-identical
    // across runs (the contract test in `tests/contract.rs` pins it).
    eprintln!("  timings: {}", report.timings);
    println!("  layout:  {}", report.layout);
    for (task, element) in report.layout.placement.iter() {
        println!(
            "    {:<12} -> {}",
            radio.task(task).name(),
            kairos.platform().element(element).name()
        );
    }
    for route in &report.layout.routes {
        let channel = radio.channel(route.channel());
        println!(
            "    {} -> {}: {} hops",
            radio.task(channel.src()).name(),
            radio.task(channel.dst()).name(),
            route.hops()
        );
    }
    if let Some(validation) = &report.validation {
        println!(
            "  steady-state period {:.0} cycles (constraint: <= 5000)",
            validation.iteration_period
        );
    }
    println!("  platform fragmentation: {:.1}%", 100.0 * kairos.fragmentation());

    // 4. Release returns every claimed resource.
    kairos.release(report.app_id);
    assert!(kairos.platform().is_idle());
    println!("\nreleased; platform idle again");
    Ok(())
}
