(* Wall-clock and allocation measurement for one benchmark run.

   A run repeats one *pass* — a fixed sequence of operations, issued in
   a closed loop from the same starting state — a fixed number of
   times.  Every output is checked outside the timed region.

   On a shared host, co-tenant load slows work down by tens of percent,
   in stretches of seconds that come and go within a run and differ
   from one run to the next.  Because the passes do identical work,
   every operation is timed by the median of its repetitions: the run
   reports throughput over the sum of those times, and the median and
   p90 over the operations.  (The fastest repetition was tried first:
   it depends on how lucky the best moment of a run was, and spread
   two to three times as much from run to run.)  Allocation and
   charged cost are deterministic, so they are taken from the first
   pass and repeat exactly for a seed and build. *)

module Stats = Rdb_util.Stats

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* A growable float vector of samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let add s x =
    if s.len = Array.length s.data then begin
      let bigger = Array.make (2 * s.len) 0.0 in
      Array.blit s.data 0 bigger 0 s.len;
      s.data <- bigger
    end;
    s.data.(s.len) <- x;
    s.len <- s.len + 1

  let length s = s.len
  let to_array s = Array.sub s.data 0 s.len

  let percentile s p =
    if s.len = 0 then invalid_arg "Samples.percentile: no samples"
    else Stats.percentile (to_array s) p
end

type pass = {
  mutable ops : int;
  mutable busy_ns : int;  (** summed wall time of the timed operations *)
  durations_ns : Samples.t;  (** the timed regions, in order *)
  mutable rows : int;
  mutable words : float;
  mutable cost : float;
  latency_us : Samples.t;
  first_row_us : Samples.t;
  sample_heap : bool;  (** the first pass samples the engine's heap *)
  mutable engine_words : int list;  (** heap words reachable from the engine *)
}

type t = {
  mutable passes : pass list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few failure descriptions *)
}

let create () = { passes = []; attempted = 0; failed = 0; failures = [] }

(* A pass starts from a compacted heap, so that no pass inherits the
   garbage of the set-ups or the passes before it. *)
let new_pass m =
  Gc.compact ();
  let p =
    {
      ops = 0;
      busy_ns = 0;
      durations_ns = Samples.create ();
      rows = 0;
      words = 0.0;
      cost = 0.0;
      latency_us = Samples.create ();
      first_row_us = Samples.create ();
      sample_heap = m.passes = [];
      engine_words = [];
    }
  in
  m.passes <- p :: m.passes;
  p

let busy_s m =
  List.fold_left (fun s p -> s +. (float_of_int p.busy_ns /. 1e9)) 0.0 m.passes

(* Run [f] as one timed region: wall nanoseconds and minor words. *)
let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let v = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  (v, t1 - t0, w1 -. w0)

(* Account [ops] operations that took [ns] wall time in all.  Latency
   samples are recorded by the caller, because an operation's latency
   is not always [ns / ops] (a storm resolves 256 submissions in one
   call). *)
let record m p ~ops ~ns ~words ~rows ~cost =
  m.attempted <- m.attempted + ops;
  p.ops <- p.ops + ops;
  p.busy_ns <- p.busy_ns + ns;
  Samples.add p.durations_ns (float_of_int ns);
  p.rows <- p.rows + rows;
  p.words <- p.words +. words;
  p.cost <- p.cost +. cost

(* Sample the heap the engine holds now: the words reachable from
   [roots], the engine's objects (a catalog, a scheduler).  The
   benchmark's own data (oracle, inputs, model) is not reachable from
   them.  The traversal takes time in proportion to that heap, so the
   workload samples outside the timed operations, only in the first
   pass (the passes are alike) and at most three times in it. *)
let engine_heap p roots =
  if p.sample_heap && List.length p.engine_words < 3 then
    p.engine_words <- Obj.reachable_words (Obj.repr roots) :: p.engine_words

let latency p ns = Samples.add p.latency_us (float_of_int ns /. 1e3)
let first_row p ns = Samples.add p.first_row_us (float_of_int ns /. 1e3)

let fail m what =
  m.failed <- m.failed + 1;
  if List.length m.failures < 5 then m.failures <- what :: m.failures

(* Check one operation's output; a mismatch or an exception in the
   check counts as a failed operation. *)
let check m label f =
  match f () with
  | true -> ()
  | false -> fail m (label ^ ": output disagrees with the oracle")
  | exception e -> fail m (label ^ ": " ^ Printexc.to_string e)

(* Run [setup] [count] times, from a compacted heap each time; keep the
   last result and report each wall time.  Earlier results are dropped
   before the next set-up starts. *)
let setups ~count setup =
  let rec go times =
    Gc.compact ();
    let t0 = now_ns () in
    let v = setup () in
    let times = seconds_since t0 :: times in
    if List.length times >= count then (v, List.rev times) else go times
  in
  go []

let first_pass m = List.nth m.passes (List.length m.passes - 1)

(* Sample [i] of every pass times the same operation; keep the median
   of its repetitions.  A pass with another sample count (none is
   expected) is left out. *)
let median_repetitions m samples =
  let n = Samples.length (samples (List.hd m.passes)) in
  let passes =
    List.filter (fun p -> Samples.length (samples p) = n) m.passes
    |> List.map (fun p -> (samples p).Samples.data)
    |> Array.of_list
  in
  Array.init n (fun i -> Stats.median (Array.map (fun d -> d.(i)) passes))

(* Operations and rows per second of a pass whose every timed region
   took the median of its repetitions. *)
let typical_rates m =
  let first = first_pass m in
  let durations = median_repetitions m (fun p -> p.durations_ns) in
  let busy_s = Array.fold_left ( +. ) 0.0 durations /. 1e9 in
  (float_of_int first.ops /. busy_s, float_of_int first.rows /. busy_s)

(* The mean of the [engine_heap] samples, in MB. *)
let engine_heap_mb m =
  let growths = List.concat_map (fun p -> p.engine_words) m.passes in
  let words = List.fold_left ( + ) 0 growths in
  float_of_int (words * (Sys.word_size / 8))
  /. 1e6
  /. float_of_int (max 1 (List.length growths))

(* The end-to-end metrics of a finished run, by name. *)
let end_to_end m ~setup_s =
  let first = first_pass m in
  let per x n = if n = 0 then 0.0 else x /. float_of_int n in
  let ops_per_s, rows_per_s = typical_rates m in
  let latency = median_repetitions m (fun p -> p.latency_us) in
  let first_row = median_repetitions m (fun p -> p.first_row_us) in
  [
    ("setup_s", Stats.median (Array.of_list setup_s));
    ("ops_per_s", ops_per_s);
    ("latency_p50_us", Stats.percentile latency 0.5);
    ("latency_p90_us", Stats.percentile latency 0.9);
    ("first_row_p50_us", Stats.percentile first_row 0.5);
    ("rows_per_s", rows_per_s);
    ("alloc_words_per_row", per first.words first.rows);
    ("alloc_words_per_op", per first.words first.ops);
    ("cost_units_per_op", per first.cost first.ops);
    ("engine_heap_mb", engine_heap_mb m);
  ]
