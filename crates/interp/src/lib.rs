//! # fiq-interp — the IR-level execution substrate
//!
//! A reference interpreter for [`fiq_ir`] modules running on the shared
//! [`fiq_mem`] memory model. This is the "high level" executor of the
//! fault-injection accuracy study: LLFI-style fault injection
//! (`fiq-core::llfi`) instruments execution through the [`InterpHook`]
//! trait — profiling dynamic instruction counts, flipping a bit in a chosen
//! instruction's destination, and tracking fault activation.
//!
//! ```
//! use fiq_ir::{BinOp, Callee, FuncBuilder, Function, Intrinsic, Module, Type, Value};
//! use fiq_interp::{run_module, InterpOptions};
//!
//! let mut module = Module::new("demo");
//! let mut main = Function::new("main", vec![], Type::Void);
//! let mut b = FuncBuilder::new(&mut main);
//! let v = b.binary(BinOp::Mul, Value::i64(6), Value::i64(7));
//! b.call(Callee::Intrinsic(Intrinsic::PrintI64), vec![v], Type::Void);
//! b.ret(None);
//! module.add_func(main);
//!
//! let result = run_module(&module, InterpOptions::default())?;
//! assert!(result.finished());
//! assert_eq!(result.output, "42\n");
//! # Ok::<(), fiq_mem::Trap>(())
//! ```

#![warn(missing_docs)]

mod decoded;
mod hook;
mod interp;
mod ops;
mod rtval;

pub use decoded::DecodedModule;
pub use hook::{InstSite, InterpHook, NopHook};
pub use interp::{
    materialize_globals, run_module, ExecResult, ExecStatus, Interp, InterpCapture, InterpOptions,
    InterpSnapshot,
};
pub use ops::{eval_cast, eval_fcmp, eval_float_binop, eval_icmp, eval_int_binop};
pub use rtval::RtVal;
