(* ingest: the data owner's write path, one closed-loop client.

   The owner uploads fresh 32-block files with Protocol II over the
   wire ([User.store_over]); after every upload it also applies a
   [Dynamic.batch] of 8 update/append/delete operations to its dynamic
   file and signs the new root ([publish_root]).
   Signing dominates here, so signing-path gains show and transport,
   Merkle and service costs barely register. *)

open Common
module System = Seccloud.System
module Dynamic = Sc_storage.Dynamic

let blocks_per_file = 32
let block_bytes = 256
(* Every batch has the same mix, 4 updates, 2 appends and 2 deletes (the
   shares the kinds were once drawn in, op by op), in a seeded order at
   seeded places: appends cost differently from writes, so every batch
   does the same work and the seed only picks which blocks. *)
let batch_kinds = [| `Update; `Update; `Update; `Update; `Append; `Append; `Delete; `Delete |]

let batch_ops = Array.length batch_kinds
let dynamic_blocks = 64

(* Uploads cycle through this many file names, each re-upload
   replacing the server's copy: the stored set, and so the heap, stays
   the same size however many uploads a run gets through. *)
let files_kept = 16

(* Appends grow the dynamic file for as long as the loop runs, so the
   heap's high-water mark is read after a fixed number of uploads, not
   at the end: at the end it grew with the host's speed (4.9 MB after
   115 uploads, 5.9 MB after 210). *)
let heap_uploads = 50

type state = {
  system : System.t;
  cloud : Seccloud.Cloud.t;
  transport : Seccloud.Transport.t;
  user : Seccloud.User.t;
  dc : Dynamic.client;
  ds : Dynamic.server;
  rng : Random.State.t;
  mutable uploads : int;
  mutable mutates : int;
  mutable last_stored : string option;  (* last file the server accepted *)
}

let owner = "owner"
let cs_id = "cs-0"

let setup ~seed =
  let system =
    System.create ~params:Sc_pairing.Params.small ~seed:("ingest:" ^ seed)
      ~cs_ids:[ cs_id ] ~da_id:"da" ()
  in
  let cloud = Seccloud.Cloud.create system ~id:cs_id () in
  let server = Seccloud.Endpoint.Server.create system cloud in
  let transport =
    Seccloud.Transport.create ~peer:cs_id ~public:(System.public system)
      ~handler:(Seccloud.Endpoint.Server.handle server)
      ()
  in
  let rng = rng_of_seed ("ingest:" ^ seed) in
  let dc, ds =
    Dynamic.init (System.public system)
      (System.register_user system owner)
      ~bytes_source:(System.bytes_source system)
      ~cs_id ~da_id:"da" ~file:"dynamic"
      (List.init dynamic_blocks (fun _ -> payload rng block_bytes))
  in
  {
    system;
    cloud;
    transport;
    user = Seccloud.User.create system ~id:owner;
    dc;
    ds;
    rng;
    uploads = 0;
    mutates = 0;
    last_stored = None;
  }

let random_batch st =
  let kinds = Array.copy batch_kinds in
  for i = Array.length kinds - 1 downto 1 do
    let j = Random.State.int st.rng (i + 1) in
    let k = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- k
  done;
  let n = Dynamic.count st.dc in
  List.map
    (function
      | `Update ->
        Dynamic.Update
          { index = Random.State.int st.rng n; payload = payload st.rng block_bytes }
      | `Append -> Dynamic.Append { payload = payload st.rng block_bytes }
      | `Delete -> Dynamic.Delete { index = Random.State.int st.rng n })
    (Array.to_list kinds)

let measure st ~spans ~seconds =
  let upload_lat = Fbuf.create () and mutate_lat = Fbuf.create () in
  let failed = ref 0 and violations = ref [] and blocks = ref 0 in
  let fail msg =
    incr failed;
    violations := msg :: !violations
  in
  let pub = System.public st.system in
  let speed = Speed.create () in
  let start = now () in
  let deadline = start +. seconds in
  let op = ref 0 in
  let first_upload = st.uploads and heap = ref None in
  while now () < deadline do
    if !heap = None && st.uploads - first_upload = heap_uploads then
      heap := Some (peak_heap_mb ());
    incr op;
    let op = !op in
    if st.mutates < st.uploads then begin
      st.mutates <- st.mutates + 1;
      let ops = random_batch st in
      let applied, (msg, signature) =
        Spans.wrap spans ~layer:"bench" ~name:"op.mutate" ~op (fun () ->
            Speed.time speed mutate_lat (fun () ->
                let applied =
                  Spans.wrap spans ~layer:"sc_storage" ~name:"dynamic.batch"
                    ~op (fun () -> Dynamic.batch st.dc st.ds ops)
                in
                ( applied,
                  Spans.wrap spans ~layer:"sc_storage"
                    ~name:"dynamic.publish_root" ~op (fun () ->
                      Dynamic.publish_root st.dc
                        ~bytes_source:(System.bytes_source st.system)) )))
      in
      blocks := !blocks + batch_ops;
      (match applied with
      | Ok n when n = batch_ops -> ()
      | Ok n -> fail (Printf.sprintf "batch applied %d of %d ops" n batch_ops)
      | Error _ -> fail "batch refused");
      if Dynamic.root st.dc <> Dynamic.server_root st.ds then
        fail "dynamic root diverged";
      if not (Sc_ibc.Ibs.verify pub ~signer:owner ~msg signature) then
        fail "root statement does not verify"
    end
    else begin
      let file = Printf.sprintf "file-%d" (st.uploads mod files_kept) in
      st.uploads <- st.uploads + 1;
      Spans.wrap spans ~layer:"bench" ~name:"op.upload" ~op (fun () ->
          let payloads =
            List.init blocks_per_file (fun _ -> payload st.rng block_bytes)
          in
          let r =
            Speed.time speed upload_lat (fun () ->
                Spans.wrap spans ~layer:"seccloud" ~name:"user.store_over" ~op
                  (fun () ->
                    Seccloud.User.store_over st.user ~transport:st.transport
                      ~cs_id ~file payloads))
          in
          blocks := !blocks + blocks_per_file;
          match r with
          | Ok true -> st.last_stored <- Some file
          | Ok false -> fail (file ^ ": honest upload refused")
          | Error e ->
            fail (file ^ ": " ^ Seccloud.Transport.error_to_string e))
    end
  done;
  let wall = now () -. start in
  Speed.finish speed;
  (* Untimed ground truth: the last accepted file is whole on the
     server, and the dynamic file audits intact against a fresh root
     statement. *)
  (match st.last_stored with
  | None -> fail "no upload completed"
  | Some file -> (
    match
      Sc_storage.Server.file_size (Seccloud.Cloud.storage st.cloud) file
    with
    | Some n when n = blocks_per_file -> ()
    | _ -> fail (file ^ ": stored size wrong")));
  let report =
    Dynamic.audit pub
      ~verifier_key:(System.da_key st.system)
      ~owner ~file:"dynamic"
      ~root_statement:
        (Dynamic.publish_root st.dc ~bytes_source:(System.bytes_source st.system))
      st.ds
      ~drbg:(Sc_hash.Drbg.create ~seed:"ingest-audit")
      ~samples:8
  in
  if not report.Dynamic.intact then fail "dynamic file audit not intact";
  let n_up = Fbuf.length upload_lat in
  let ops = n_up + Fbuf.length mutate_lat in
  let up_blocks = float_of_int (n_up * blocks_per_file) in
  (* Blocks uploaded per second of the program's calls at reference
     speed; the benchmark's own work between calls is left out. *)
  let blocks_per_s = up_blocks /. (sum upload_lat +. sum mutate_lat) in
  {
    attempted = ops;
    failed = !failed;
    violations = List.rev !violations;
    ops;
    blocks = !blocks;
    wall;
    busy = speed.Speed.cpu;
    e2e =
      [
        "throughput_per_s", blocks_per_s;
        ( "peak_heap_mb",
          match !heap with
          | Some h -> h
          | None -> failwith (Printf.sprintf "run too short for %d uploads" heap_uploads) );
      ];
    series =
      [
        { role = "primary"; label = "upload"; pct = 90.; samples = upload_lat };
        { role = "secondary"; label = "mutate"; pct = 90.; samples = mutate_lat };
      ];
    layer = [];
    notes =
      [
        "upload_blocks_per_s", Printf.sprintf "%.4f" blocks_per_s;
        "upload_blocks_per_cpu_s", Printf.sprintf "%.4f" (up_blocks /. speed.Speed.cpu);
        "upload_blocks_per_wall_s", Printf.sprintf "%.4f" (up_blocks /. wall);
      ]
      @ Speed.notes speed;
  }
