package port

// InboxCap sizes the external tests' bursts past a port's channel; Spills
// reads how many spills the process has started.
const InboxCap = inboxCap

func Spills() uint64 { return spills.Load() }
