open Rdb_engine
open Rdb_storage

type t = {
  table : Table.t;
  meter : Cost.t;
  restriction : Predicate.t;
  cursor : Heap_file.cursor;
  mutable examined : int;
  mutable finished : bool;
}

let create table meter restriction =
  if not (Predicate.is_bound restriction) then invalid_arg "Tscan.create: unbound restriction";
  {
    table;
    meter;
    restriction;
    cursor = Heap_file.scan (Table.heap table) meter;
    examined = 0;
    finished = false;
  }

let step t =
  if t.finished then Scan.Done
  else begin
    (* [Heap_file.next] loads pages before advancing its cursor, so a
       faulted quantum leaves the scan where it was: stepping again
       retries the same page. *)
    match Heap_file.next t.cursor with
    | exception Fault.Injected f -> Scan.Failed f
    | None ->
        t.finished <- true;
        Scan.Done
    | Some (rid, row) ->
        t.examined <- t.examined + 1;
        Cost.charge_cpu t.meter 1;
        if Predicate.eval t.restriction (Table.schema t.table) row then Scan.Deliver (rid, row)
        else Scan.Continue
  end

let meter t = t.meter
let examined t = t.examined
