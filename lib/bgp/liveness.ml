type config = {
  keepalive_interval : float;
  hold_time : float;
  reconnect_interval : float;
  graceful_restart : bool;
  stale_path_time : float;
}

let default =
  {
    keepalive_interval = 0.002;
    hold_time = 0.006;
    reconnect_interval = 0.008;
    graceful_restart = false;
    stale_path_time = 0.05;
  }

let with_gr config = { config with graceful_restart = true }

let pp ppf c =
  Format.fprintf ppf
    "keepalive=%.4fs hold=%.4fs reconnect=%.4fs gr=%b stale-path=%.4fs"
    c.keepalive_interval c.hold_time c.reconnect_interval c.graceful_restart
    c.stale_path_time
