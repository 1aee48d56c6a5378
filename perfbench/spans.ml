(* The traced run's spans: recorded by the benchmark around each of
   its own calls into a layer, held in memory, summarised at the end.
   Nothing here reaches into the libraries; the layers below the
   benchmark's calls are charged from counter deltas taken at the span
   boundaries ("probes"), times a unit cost measured separately. *)

type span = {
  id : int;
  name : string;
  layer : string;
  op : int;
  parent : int;  (* -1 for a root span *)
  start : float;
  stop : float;
  delta : int array;  (* probe deltas over the whole span *)
}

type t = {
  probes : (unit -> int) array;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (* most recent first *)
}

let create probes = { probes; next = 0; stack = []; spans = [] }
let spans t = List.rev t.spans

let record t ~layer ~name ~op f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let before = Array.map (fun p -> p ()) t.probes in
  t.stack <- id :: t.stack;
  let start = Unix.gettimeofday () in
  let result = f () in
  let stop = Unix.gettimeofday () in
  t.stack <- List.tl t.stack;
  let delta = Array.mapi (fun i p -> p () - before.(i)) t.probes in
  t.spans <- { id; name; layer; op; parent; start; stop; delta } :: t.spans;
  result

(* [wrap None] is the untraced path: the call runs bare. *)
let wrap t ~layer ~name ~op f =
  match t with None -> f () | Some t -> record t ~layer ~name ~op f

let duration s = s.stop -. s.start

(* Children grouped by parent id. *)
let children spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s)
    spans;
  fun id -> Hashtbl.find_all tbl id

(* A span's self time: its duration minus the time its child spans
   cover.  Children are nested and sequential, so their durations
   simply add. *)
let self_times spans =
  let kids = children spans in
  List.map
    (fun s ->
      s, duration s -. List.fold_left (fun acc c -> acc +. duration c) 0. (kids s.id))
    spans

(* Splits [total] seconds of traced wall time across layers.  Each
   span's self time goes to its layer, less the estimated cost of the
   probed work done inside it and not inside a child: for probe [k],
   own count x [costs.(k)] seconds, charged to [prim_layers.(k)].
   Estimates never exceed the self time they come out of (they are
   scaled down to fit), and whatever no root span covers is [other],
   so the shares add up to [total] exactly. *)
let attribute ~total ~prim_layers ~costs spans =
  let kids = children spans in
  let acc = Hashtbl.create 16 in
  let charge layer v =
    Hashtbl.replace acc layer
      (v +. Option.value ~default:0. (Hashtbl.find_opt acc layer))
  in
  let covered = ref 0. in
  List.iter
    (fun (s, self) ->
      if s.parent < 0 then covered := !covered +. duration s;
      let own = Array.copy s.delta in
      List.iter
        (fun c -> Array.iteri (fun k d -> own.(k) <- own.(k) - d) c.delta)
        (kids s.id);
      let est = Array.mapi (fun k n -> float_of_int n *. costs.(k)) own in
      let est_total = Array.fold_left ( +. ) 0. est in
      let scale =
        if est_total > self && est_total > 0. then Float.max 0. self /. est_total
        else 1.
      in
      Array.iteri (fun k e -> charge prim_layers.(k) (e *. scale)) est;
      charge s.layer (self -. (est_total *. scale)))
    (self_times spans);
  charge "other" (total -. !covered);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort compare
