package fdl

// ActivityPaths lets the external reachability tests enumerate a process's
// activities.
var ActivityPaths = activityPaths
