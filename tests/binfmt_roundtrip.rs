//! The Kairos binary application format end-to-end: applications survive
//! encode/decode byte-exactly and allocate identically afterwards — the
//! property the paper's Linux binary handler relies on.

use kairos::app::binfmt::{self, BinfmtError};
use kairos::app::{
    Application, ApplicationBuilder, ApplicationError, ChannelId, Constraint, Implementation,
    TaskRole,
};
use kairos::appgen::{beamforming_app, generate_dataset, DatasetSpec};
use kairos::core::{Kairos, KairosConfig};
use kairos::platform::{topology, ElementKind, ResourceVector};

/// `app` rebuilt with one more constraint, through the builder's checks.
fn with_constraint(
    app: &Application,
    constraint: Constraint,
) -> Result<Application, ApplicationError> {
    let mut b = ApplicationBuilder::new(app.name());
    for task in app.tasks() {
        b.add_task(task.name(), task.role(), task.implementations().to_vec());
    }
    for c in app.channels() {
        b.add_channel(c.src(), c.dst(), c.bandwidth(), c.tokens_per_firing());
    }
    for &c in app.constraints() {
        b.add_constraint(c);
    }
    b.add_constraint(constraint);
    b.build()
}

/// SplitMix64 from a fixed seed, so every run flips the same bytes.
fn split_mix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn every_dataset_app_roundtrips() {
    for spec in DatasetSpec::all() {
        for app in generate_dataset(spec, 10, 42) {
            let image = binfmt::encode(&app).expect("encode");
            assert!(binfmt::is_kairos_image(&image));
            let back = binfmt::decode(&image).expect("decode");
            assert_eq!(app, back, "{spec:?}: roundtrip mismatch");
        }
    }
}

#[test]
fn beamformer_roundtrips() {
    let app = beamforming_app();
    let image = binfmt::encode(&app).expect("encode");
    let back = binfmt::decode(&image).unwrap();
    assert_eq!(app, back);
}

#[test]
fn decoded_applications_allocate_identically() {
    let apps = generate_dataset(DatasetSpec::all()[0], 8, 17);
    let mut direct = Kairos::new(topology::crisp(), KairosConfig::default());
    let mut via_image = Kairos::new(topology::crisp(), KairosConfig::default());
    for app in &apps {
        let decoded = binfmt::decode(&binfmt::encode(app).unwrap()).unwrap();
        let a = direct.admit(app);
        let b = via_image.admit(&decoded);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.layout, rb.layout, "layouts diverged for {}", app.name());
            }
            (Err(fa), Err(fb)) => {
                assert_eq!(fa.phase(), fb.phase(), "phases diverged for {}", app.name());
            }
            (a, b) => panic!(
                "admission outcome diverged for {}: direct={:?} decoded={:?}",
                app.name(),
                a.is_ok(),
                b.is_ok()
            ),
        }
        // Whatever mapping left the application keeping, equality and
        // `Debug` do not see it.
        let fresh = binfmt::decode(&binfmt::encode(app).unwrap()).unwrap();
        assert_eq!(*app, fresh, "{} no longer equals its image", app.name());
        assert_eq!(format!("{app:?}"), format!("{fresh:?}"), "{} prints apart", app.name());
    }
}

/// A length the image cannot record is refused with a typed error, not
/// wrapped into an image that decodes to another application: a name's
/// length and a task's implementation count are `u16` fields.
#[test]
fn lengths_beyond_their_fields_are_refused_by_the_encoder() {
    let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(300, 8, 0, 0), 50, 1);
    let named = |len: usize| {
        let mut b = ApplicationBuilder::new("n".repeat(len));
        b.add_task("only", TaskRole::Internal, vec![imp]);
        b.build().unwrap()
    };
    let widest = named(65_535);
    assert_eq!(binfmt::decode(&binfmt::encode(&widest).unwrap()).unwrap(), widest);
    assert_eq!(
        binfmt::encode(&named(65_536)),
        Err(BinfmtError::FieldTooWide { field: "application name length", len: 65_536 })
    );

    let mut b = ApplicationBuilder::new("many");
    b.add_task("only", TaskRole::Internal, vec![imp; 65_536]);
    assert_eq!(
        binfmt::encode(&b.build().unwrap()),
        Err(BinfmtError::FieldTooWide { field: "implementation count", len: 65_536 })
    );
}

#[test]
fn foreign_binaries_are_rejected() {
    // The kernel handler must not claim ELF files or random bytes.
    assert!(!binfmt::is_kairos_image(b"\x7fELF\x02\x01\x01"));
    assert!(binfmt::decode(b"\x7fELF\x02\x01\x01").is_err());
    assert!(binfmt::decode(&[]).is_err());
}

/// A hostile image never panics the manager: every catalogue app's image,
/// with one to four bytes flipped at a time, either decodes to an error or
/// decodes to an application whose admission on CRISP answers `Ok` or
/// `Err`. Flipped sizes and demands reach the pipeline's arithmetic, so a
/// sum that can wrap (a resource total, an execution-time sum) shows up
/// here as a debug-build overflow panic.
#[test]
fn flipped_images_decode_to_errors_or_admit_without_panicking() {
    let mut next = split_mix(2010);
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let (mut decoded, mut admitted) = (0, 0);
    for app in DatasetSpec::all().into_iter().flat_map(|spec| generate_dataset(spec, 1, 7)) {
        let image = binfmt::encode(&app).expect("encode");
        for _ in 0..2500 {
            let mut flipped = image.clone();
            for _ in 0..1 + next() % 4 {
                let at = (next() % flipped.len() as u64) as usize;
                flipped[at] ^= (next() % 255 + 1) as u8;
            }
            let Ok(hostile) = binfmt::decode(&flipped) else { continue };
            decoded += 1;
            if let Ok(report) = kairos.admit(&hostile) {
                admitted += 1;
                assert!(kairos.release(report.app_id));
            }
        }
    }
    assert!(decoded > 5000 && admitted > 1000, "{decoded} decoded, {admitted} admitted");
    kairos.audit().expect("every admission released");
}

/// A latency constraint with a pipeline depth of zero bounds no period:
/// the builder refuses it with a typed error, and an image carrying one
/// decodes to an error — it never reaches validation, where the
/// conversion to a period would divide by the depth.
#[test]
fn a_zero_pipeline_depth_is_refused_by_the_builder_and_the_decoder() {
    let app = generate_dataset(DatasetSpec::all()[0], 1, 7).remove(0);
    let zero = Constraint::Latency { max_latency_cycles: 1 << 30, pipeline_depth: 0 };
    assert_eq!(with_constraint(&app, zero).unwrap_err(), ApplicationError::ZeroPipelineDepth(0));

    let deep = Constraint::Latency { max_latency_cycles: 1 << 30, pipeline_depth: 3 };
    let mut image = binfmt::encode(&with_constraint(&app, deep).unwrap()).expect("encode");
    assert!(binfmt::decode(&image).is_ok());
    // The depth is the image's last field, a little-endian `u32`.
    let at = image.len() - 4;
    assert_eq!(image[at..], 3u32.to_le_bytes());
    image[at] = 0;
    assert!(matches!(binfmt::decode(&image), Err(BinfmtError::InvalidApplication(_))));
}

/// The flip loop above, over images that carry a latency constraint (the
/// catalogue carries none): flipped latency bounds and pipeline depths
/// decode to errors or to applications whose admission answers `Ok` or
/// `Err`, never a panic.
#[test]
fn flipped_latency_images_decode_to_errors_or_admit_without_panicking() {
    let mut next = split_mix(2045);
    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let latency = Constraint::Latency { max_latency_cycles: 1 << 40, pipeline_depth: 2 };
    let (mut decoded, mut admitted) = (0, 0);
    for app in DatasetSpec::all().into_iter().flat_map(|spec| generate_dataset(spec, 1, 7)) {
        let image = binfmt::encode(&with_constraint(&app, latency).unwrap()).expect("encode");
        for _ in 0..1000 {
            let mut flipped = image.clone();
            for _ in 0..1 + next() % 4 {
                // Half the flips land in the constraint's 13 bytes.
                let at = if next().is_multiple_of(2) {
                    flipped.len() - 1 - (next() % 13) as usize
                } else {
                    (next() % flipped.len() as u64) as usize
                };
                flipped[at] ^= (next() % 255 + 1) as u8;
            }
            let Ok(hostile) = binfmt::decode(&flipped) else { continue };
            decoded += 1;
            if let Ok(report) = kairos.admit(&hostile) {
                admitted += 1;
                assert!(kairos.release(report.app_id));
            }
        }
    }
    assert!(decoded > 1000 && admitted > 300, "{decoded} decoded, {admitted} admitted");
    kairos.audit().expect("every admission released");
}

/// A two-task application `a → b` under a throughput constraint, its one
/// channel moving `rate` tokens per firing, or — `cyclic` — `a → b → a`
/// under a latency constraint.
fn pair(rate: u32, cyclic: bool) -> Result<Application, ApplicationError> {
    let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(300, 8, 0, 0), 50, 1);
    let mut b = ApplicationBuilder::new("pair");
    let a = b.add_task("a", TaskRole::Input, vec![imp]);
    let c = b.add_task("b", TaskRole::Output, vec![imp]);
    b.add_channel(a, c, 10, rate);
    if cyclic {
        b.add_channel(c, a, 10, rate);
        b.add_constraint(Constraint::Latency { max_latency_cycles: 1 << 30, pipeline_depth: 1 });
    } else {
        b.add_constraint(Constraint::Throughput { max_period_cycles: 10_000 });
    }
    b.build()
}

/// An SDF graph whose channel moves zero tokens per firing has no
/// meaningful period, so no throughput guarantee could hold: the builder
/// refuses it with a typed error and an image carrying one decodes to an
/// error, before any board could admit it. A cycle without initial tokens
/// builds, and its admission is refused, because the self-timed execution
/// deadlocks.
#[test]
fn zero_rate_and_cyclic_graphs_are_refused() {
    assert_eq!(pair(0, false).unwrap_err(), ApplicationError::ZeroRateChannel(ChannelId(0)));

    let mut image = binfmt::encode(&pair(7, false).unwrap()).expect("encode");
    assert!(binfmt::decode(&image).is_ok());
    // The rate is the last channel field, a little-endian `u32` before
    // the constraint count (`u32`), the constraint's tag and its period.
    let at = image.len() - (4 + 4 + 1 + 8);
    assert_eq!(image[at..at + 4], 7u32.to_le_bytes());
    image[at] = 0;
    assert!(matches!(binfmt::decode(&image), Err(BinfmtError::InvalidApplication(_))));

    let mut kairos = Kairos::new(topology::crisp(), KairosConfig::default());
    let err = kairos.admit(&pair(1, true).unwrap()).unwrap_err();
    assert!(err.error.to_string().ends_with("self-timed execution deadlocked"), "{err:?}");
    assert!(kairos.admit(&pair(1, false).unwrap()).is_ok(), "a live pair is admitted");
}
