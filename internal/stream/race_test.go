//go:build race

package stream

// underRace reports a race-detector build (see TestStreamEagerIsPaper).
const underRace = true
