(* What every workload provides to the run loop in [main.ml]. *)

module type S = sig
  val name : string

  val pass_s : float
  (** Wall seconds of one pass, its untimed checks and resets included,
      as measured when the workload was tuned (2-CPU x86-64 host,
      OCaml 5.1).  A run of [s] seconds makes
      [passes s] passes: a count that depends on [s] only, never on the
      engine's speed, so that a change and its parent take the median
      of the same number of repetitions. *)

  val setups : int
  (** Timed set-ups before the passes, and again after them. *)

  type catalog

  val setup : seed:int -> catalog
  (** The timed set-up: a fresh catalog, dataset load, index builds. *)

  type t

  val start : seed:int -> catalog -> t
  (** Untimed: generate the pass's operations from the seed and build
      the oracle. *)

  val prepare : t -> traced:bool -> unit
  (** Untimed: bring the catalog back to the state every pass starts
      from, so that all passes do identical work. *)

  val pool : t -> Rdb_storage.Buffer_pool.t
  (** The pool of the current pass, whose meter and metrics the traced
      run reads. *)

  val inputs_digest : t -> string
  (** Digest of the generated inputs: equal seeds give equal digests. *)

  val pass : t -> Measure.t -> Measure.pass -> Tracer.t option -> unit
  (** Issue the pass's operations, checking each output outside the
      timed region. *)

  val layers : t -> Tracer.t -> (string * float) list * (string * bool) list
  (** After the traced passes: this workload's per-layer metrics (layer
      probes included) and its reconciliation checks. *)
end

let passes (module W : S) seconds = max 1 (Float.to_int (Float.round (seconds /. W.pass_s)))

(* Derived seeds, so one benchmark seed drives independent generators. *)
let derive seed k = abs ((seed * 1_000_003) + (k * 7919)) land 0x3fffffff

let hex s = Digest.to_hex (Digest.string s)
