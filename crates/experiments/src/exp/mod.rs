//! One module per reproduced table/figure; ids match the experiment index
//! in `docs/PAPER_MAP.md`.

pub mod a1;
pub mod a2;
pub mod a3;
pub mod a4;
pub mod a5;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;
pub mod t7;
pub mod t8;
pub mod t9;
pub mod x1;
pub mod x2;
