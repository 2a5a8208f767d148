//! One module per paper table/figure. Each `run()` returns the formatted
//! report that `all_experiments` prints under that section's ruler.

pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod llm_serve;
pub mod scalability;
pub mod sweeps;
pub mod table1;
pub mod utilization;
