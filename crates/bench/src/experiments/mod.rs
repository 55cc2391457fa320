//! One module per paper table/figure, plus the design ablations.

pub mod ablations;
pub mod fault_sweep;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
