type priority_mode = Oldness | Lowest_id

type t = {
  dmax : int;
  quarantine_enabled : bool;
  compat_shortcut_enabled : bool;
  joint_admission_enabled : bool;
  admission_gate_enabled : bool;
  contest_cooldown_enabled : bool;
  priority_mode : priority_mode;
}

let make ?(quarantine_enabled = true) ?(compat_shortcut_enabled = true)
    ?(joint_admission_enabled = true) ?(admission_gate_enabled = true)
    ?(contest_cooldown_enabled = true) ?(priority_mode = Oldness) ~dmax () =
  if dmax < 1 then invalid_arg "Config.make: dmax must be >= 1";
  {
    dmax;
    quarantine_enabled;
    compat_shortcut_enabled;
    joint_admission_enabled;
    admission_gate_enabled;
    contest_cooldown_enabled;
    priority_mode;
  }
