(* Heap-scan oracle: the rows a restriction must return, computed
   without the optimizer.

   The heap is read once with [Heap_file.iter]; every answer is then
   [Predicate.eval] over those rows.  To keep thousands of point
   queries affordable, rows are also bucketed by the value of a few
   columns: an equality on a bucketed column narrows the candidates,
   and [Predicate.eval] still decides every candidate, so a bucket can
   only speed the oracle up, never change its answer.

   Results are compared as multisets through an order-free fingerprint
   (count and two sums over row hashes), so a 25k-row answer
   is checked without sorting it. *)

open Rdb_data
open Rdb_engine

type t = {
  schema : Schema.t;
  rows : Row.t array;
  buckets : (string * (Value.t, int list) Hashtbl.t) list;
}

let heap_rows table =
  let acc = ref [] in
  Rdb_storage.Heap_file.iter (Table.heap table) (Rdb_storage.Cost.create ()) (fun _ row ->
      acc := row :: !acc);
  Array.of_list (List.rev !acc)

let create ?(bucket_on = []) table =
  let schema = Table.schema table in
  let rows = heap_rows table in
  let bucket col =
    let i = Schema.index_of schema col in
    let h = Hashtbl.create 1024 in
    for r = Array.length rows - 1 downto 0 do
      let v = rows.(r).(i) in
      Hashtbl.replace h v (r :: Option.value ~default:[] (Hashtbl.find_opt h v))
    done;
    (col, h)
  in
  { schema; rows; buckets = List.map bucket bucket_on }

(* Candidate row positions for a bound restriction; [None] = all rows. *)
let rec candidates o (p : Predicate.t) =
  match p with
  | Predicate.Cmp (col, Predicate.Eq, Predicate.Const v) -> (
      match List.assoc_opt col o.buckets with
      | Some h -> Some (Option.value ~default:[] (Hashtbl.find_opt h v))
      | None -> None)
  | Predicate.And ps ->
      List.fold_left
        (fun best q ->
          match (best, candidates o q) with
          | None, c -> c
          | b, None -> b
          | Some a, Some b -> if List.length b < List.length a then Some b else Some a)
        None ps
  | Predicate.Or ps ->
      List.fold_left
        (fun acc q ->
          match (acc, candidates o q) with
          | Some a, Some b -> Some (List.rev_append b a)
          | _ -> None)
        (Some []) ps
  | _ -> None

(* The qualifying rows of [pred] bound under [env]. *)
let answer o pred env =
  let pred = Predicate.simplify (Predicate.bind pred env) in
  let keep r acc =
    if Predicate.eval pred o.schema o.rows.(r) then o.rows.(r) :: acc else acc
  in
  match candidates o pred with
  | Some rs -> List.fold_left (fun acc r -> keep r acc) [] (List.sort_uniq compare rs)
  | None ->
      let acc = ref [] in
      for r = Array.length o.rows - 1 downto 0 do
        acc := keep r !acc
      done;
      !acc

(* ---- multiset fingerprints ------------------------------------------ *)

type fingerprint = { count : int; h1 : int; h2 : int }

let empty = { count = 0; h1 = 0; h2 = 0 }

(* One structural hash per row; the second sum sees it through a
   multiplicative mix, so the two sums fail independently. *)
let add fp (row : Row.t) =
  let h = Hashtbl.hash row in
  { count = fp.count + 1; h1 = fp.h1 + h; h2 = fp.h2 + ((h * 0x9E3779B1) lxor (h lsr 7)) }

let fingerprint rows = List.fold_left add empty rows

(* A LIMIT result is right when it has min(limit, |answer|) rows and
   each one takes a distinct copy of one of the answer's rows. *)
let limited_subset ~limit ~answer rows =
  let left = Hashtbl.create 64 in
  let copies r = Option.value ~default:0 (Hashtbl.find_opt left r) in
  List.iter (fun r -> Hashtbl.replace left r (copies r + 1)) answer;
  let take r =
    let n = copies r in
    Hashtbl.replace left r (n - 1);
    n > 0
  in
  List.length rows = min limit (List.length answer) && List.for_all take rows

(* ---- checking query results, memoized by query label ------------------ *)

type expected = Subset of Row.t list | Exactly of fingerprint
type memo = { oracle : t; expected : (string, expected) Hashtbl.t }

let memo oracle = { oracle; expected = Hashtbl.create 1024 }

(* The expected result of [pred] under [env], computed once per
   [label], which must identify the restriction and its bindings.
   Workloads call it for all their queries before the first pass, so
   that the passes' heap holds no oracle answers in the making. *)
let expect memo ~label ?limit pred env =
  match Hashtbl.find_opt memo.expected label with
  | Some e -> e
  | None ->
      let answer = answer memo.oracle pred env in
      let e = if limit = None then Exactly (fingerprint answer) else Subset answer in
      Hashtbl.replace memo.expected label e;
      e

(* Does [rows] answer [pred] under [env]?  With [limit], any
   correctly sized subset of the answer does. *)
let agrees memo ~label ?limit pred env rows =
  match (expect memo ~label ?limit pred env, limit) with
  | Subset answer, Some limit -> limited_subset ~limit ~answer rows
  | Exactly fp, None -> fingerprint rows = fp
  | _ -> false

let table_fingerprint memo = Array.fold_left add empty memo.oracle.rows
let heap_fingerprint table = Array.fold_left add empty (heap_rows table)
