package checkpoint

// BodyEncodes exposes the body-encode counter to the external tests,
// which can import the HA subsystem.
func BodyEncodes() int64 { return bodyEncodes.Load() }
