(** HDR-style log-bucketed histogram bounds and quantile readback.

    Bucket upper bounds grow geometrically with ratio
    [(1 + relative_error)^2]; the geometric midpoint of a bucket is
    then within {!relative_error} of any value in it, so
    {!quantile} estimates are within ~5% relative error of the exact
    sample quantile for observations inside the covered range
    (defaults: 0.01 µs .. 1e8 µs, ~240 buckets). *)

val relative_error : float
(** 0.05 — the documented bound for {!default_bounds} buckets. *)

val ratio : float
(** Geometric bucket growth factor [(1 + relative_error)^2]. *)

val buckets :
  ?min_value:float -> ?max_value:float -> ?relative_error:float -> unit ->
  float array
(** Strictly increasing geometric upper bounds covering
    [min_value .. max_value]. *)

val default_bounds : unit -> float array
(** [buckets ()], computed once at module initialisation — the
    span-latency default. *)

val histogram : string -> Registry.histogram
(** Find-or-create a registry histogram with {!default_bounds}. *)

val quantile : Registry.hist_snapshot -> float -> float
(** Alias of {!Registry.quantile}. *)

val summary : Registry.hist_snapshot -> (string * float) list
(** [p50]/[p90]/[p99]/[p999] of a snapshot. *)
