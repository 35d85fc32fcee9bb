//! The service's DP configuration, checked against the paper's
//! reference wherever a suite optimizes.

use blitzsplit::{
    optimize_join, optimize_join_with, CostModel, DriveOptions, DriverChoice, JoinSpec,
    KernelChoice, LayoutChoice, Optimized,
};

/// The configuration the service runs — hot/cold table, SIMD kernel,
/// conv driver — on four wave workers.
pub fn service_options() -> DriveOptions {
    DriveOptions::parallel(4)
        .with_layout(LayoutChoice::HotCold)
        .with_kernel(KernelChoice::Simd)
        .with_driver(DriverChoice::Conv)
}

/// [`optimize_join`] — the serial AoS scalar split reference — after
/// checking that [`service_options`] gives the same cost and card bits.
pub fn optimize_checked<M: CostModel + Sync>(spec: &JoinSpec, model: &M) -> Optimized {
    let reference = optimize_join(spec, model).unwrap();
    let service = optimize_join_with(spec, model, service_options()).unwrap();
    let label = format!("{} n={}", model.name(), spec.n());
    assert_eq!(service.cost.to_bits(), reference.cost.to_bits(), "{label}: service cost");
    assert_eq!(service.card.to_bits(), reference.card.to_bits(), "{label}: service card");
    reference
}
