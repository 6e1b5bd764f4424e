package moods

// For package moods_test, whose tests draw paper workloads (package
// workload imports moods).
var (
	SameStore  = sameStore
	RecordEach = recordEach
)
