"""Hive-style baselines: VP tables, naive and MQO planners."""
